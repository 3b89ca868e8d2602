// Command serverload drives a running xqserve with concurrent HTTP
// clients and reports latency percentiles and the admission outcome mix
// (success / shed / timeout / error rates). It is the load half of the
// CI load-test job: xqserve runs under -race while serverload hammers
// it, and the printed report is uploaded as an artifact.
//
// Usage:
//
//	serverload -addr http://localhost:8080 -c 200 -n 5000
//	serverload -addr http://localhost:8080 -c 100 -duration 30s -timeout-ms 250
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The mix pairs cheap indexed probes with one full-scan FLWOR heavy
// enough to hold an admission slot — without it a fast engine drains
// every request before the queue can form and the shed path never runs.
var queries = []string{
	`select ordid from orders where ordid = %d`,
	`db2-fn:xmlcolumn("ORDERS.ORDDOC")//lineitem[@price > 150]`,
	`db2-fn:xmlcolumn("ORDERS.ORDDOC")//order[lineitem/@price > 180]`,
	`for $d in db2-fn:xmlcolumn("ORDERS.ORDDOC") for $l in $d//lineitem where $l/@price >= 0 return $l/@price`,
}

type result struct {
	status  int
	latency time.Duration
	err     error
}

func main() {
	var (
		addr      = flag.String("addr", "http://localhost:8080", "xqserve base URL")
		conc      = flag.Int("c", 100, "concurrent clients")
		total     = flag.Int("n", 2000, "total requests (ignored when -duration is set)")
		duration  = flag.Duration("duration", 0, "run for a fixed duration instead of a request count")
		timeoutMS = flag.Int64("timeout-ms", 1000, "per-request timeout_ms sent to the server")
		jsonOut   = flag.String("json", "", "also write the summary as JSON to this file")
	)
	flag.Parse()
	if err := run(*addr, *conc, *total, *duration, *timeoutMS, *jsonOut, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "serverload:", err)
		os.Exit(1)
	}
}

func run(addr string, conc, total int, duration time.Duration, timeoutMS int64, jsonOut string, out io.Writer) error {
	// Wait for the server to come up (CI boots it moments before).
	if err := waitHealthy(addr, 30*time.Second); err != nil {
		return err
	}

	var (
		mu      sync.Mutex
		results []result
		seq     atomic.Int64
		stop    = make(chan struct{})
	)
	if duration > 0 {
		total = int(^uint(0) >> 1) // run until the timer fires
		time.AfterFunc(duration, func() { close(stop) })
	}
	// The default transport keeps only 2 idle conns per host, which
	// throttles real concurrency to a trickle of churning connections —
	// size the pool to the worker count so the server sees the load.
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conc,
			MaxIdleConnsPerHost: conc,
		},
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := seq.Add(1)
				if int(i) > total {
					return
				}
				select {
				case <-stop:
					return
				default:
				}
				r := oneRequest(client, addr, i, timeoutMS)
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	return report(results, elapsed, jsonOut, out)
}

func oneRequest(client *http.Client, addr string, i int64, timeoutMS int64) result {
	q := queries[i%int64(len(queries))]
	if strings.Contains(q, "%d") {
		q = fmt.Sprintf(q, i%500)
	}
	body, _ := json.Marshal(map[string]any{"query": q, "timeout_ms": timeoutMS})
	t0 := time.Now()
	resp, err := client.Post(addr+"/query", "application/json", strings.NewReader(string(body)))
	lat := time.Since(t0)
	if err != nil {
		return result{err: err, latency: lat}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return result{status: resp.StatusCode, latency: lat}
}

func waitHealthy(addr string, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		resp, err := http.Get(addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy after %s: %v", addr, patience, err)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// summary is the machine-readable report (-json).
type summary struct {
	Requests   int              `json:"requests"`
	ElapsedMS  int64            `json:"elapsed_ms"`
	Throughput float64          `json:"requests_per_sec"`
	ByStatus   map[string]int   `json:"by_status"`
	ShedRate   float64          `json:"shed_rate"`
	ErrorCount int              `json:"transport_errors"`
	LatencyMS  map[string]int64 `json:"latency_ms"`
}

func report(results []result, elapsed time.Duration, jsonOut string, out io.Writer) error {
	if len(results) == 0 {
		return fmt.Errorf("no requests completed")
	}
	byStatus := map[string]int{}
	var lats []time.Duration
	errs, shed := 0, 0
	for _, r := range results {
		if r.err != nil {
			errs++
			continue
		}
		byStatus[fmt.Sprint(r.status)]++
		lats = append(lats, r.latency)
		if r.status == http.StatusTooManyRequests {
			shed++
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) int64 {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)-1))
		return lats[i].Milliseconds()
	}
	s := summary{
		Requests:   len(results),
		ElapsedMS:  elapsed.Milliseconds(),
		Throughput: float64(len(results)) / elapsed.Seconds(),
		ByStatus:   byStatus,
		ShedRate:   float64(shed) / float64(len(results)),
		ErrorCount: errs,
		LatencyMS: map[string]int64{
			"p50": pct(0.50), "p90": pct(0.90), "p99": pct(0.99), "max": pct(1.0),
		},
	}
	fmt.Fprintf(out, "requests:     %d in %s (%.1f req/s)\n", s.Requests, elapsed.Round(time.Millisecond), s.Throughput)
	keys := make([]string, 0, len(byStatus))
	for k := range byStatus {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "status %s:   %d\n", k, byStatus[k])
	}
	fmt.Fprintf(out, "shed rate:    %.2f%%\n", 100*s.ShedRate)
	fmt.Fprintf(out, "transport errors: %d\n", errs)
	fmt.Fprintf(out, "latency ms:   p50=%d p90=%d p99=%d max=%d\n",
		s.LatencyMS["p50"], s.LatencyMS["p90"], s.LatencyMS["p99"], s.LatencyMS["max"])
	if jsonOut != "" {
		data, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	// Transport errors mean requests that never resolved to a response —
	// the one outcome admission control exists to prevent.
	if errs > 0 {
		return fmt.Errorf("%d requests failed at the transport layer", errs)
	}
	return nil
}
