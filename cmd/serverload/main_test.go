package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestReportSummaryShape: the -json artifact carries the latency
// percentiles, throughput and shed rate the human report prints.
func TestReportSummaryShape(t *testing.T) {
	results := make([]result, 0, 100)
	for i := 0; i < 100; i++ {
		r := result{status: http.StatusOK, latency: time.Duration(i+1) * time.Millisecond}
		if i < 10 { // 10% shed
			r.status = http.StatusTooManyRequests
		}
		results = append(results, r)
	}
	jsonOut := filepath.Join(t.TempDir(), "load.json")
	var out strings.Builder
	if err := report(results, 2*time.Second, jsonOut, &out); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	var rep summary
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("artifact not valid JSON: %v\n%s", err, data)
	}
	// p50 over 1..100ms is the 49th index.
	if got := rep.LatencyMS["p50"]; got != 50 {
		t.Errorf("latency p50 = %d ms, want 50", got)
	}
	if got := rep.LatencyMS["max"]; got != 100 {
		t.Errorf("latency max = %d ms, want 100", got)
	}
	// 100 requests in 2s.
	if rep.Requests != 100 || rep.Throughput < 49 || rep.Throughput > 51 {
		t.Errorf("requests = %d at %v/s, want 100 at ~50/s", rep.Requests, rep.Throughput)
	}
	if rep.ShedRate != 0.10 || rep.ByStatus["429"] != 10 {
		t.Errorf("shed_rate = %v with %d 429s, want 0.10 and 10", rep.ShedRate, rep.ByStatus["429"])
	}
	for _, want := range []string{"shed rate:    10.00%", "latency ms:   p50=50 p90=90 p99=99 max=100"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("human report missing %q:\n%s", want, out.String())
		}
	}
}

// TestReportTransportErrorsFail: requests that never resolved to a
// response must fail the run — that is the outcome admission control
// exists to prevent — while still writing the artifact first.
func TestReportTransportErrorsFail(t *testing.T) {
	results := []result{
		{status: http.StatusOK, latency: time.Millisecond},
		{err: os.ErrDeadlineExceeded, latency: time.Second},
	}
	jsonOut := filepath.Join(t.TempDir(), "load.json")
	var out strings.Builder
	err := report(results, time.Second, jsonOut, &out)
	if err == nil || !strings.Contains(err.Error(), "transport layer") {
		t.Fatalf("want transport-layer failure, got %v", err)
	}
	if _, statErr := os.Stat(jsonOut); statErr != nil {
		t.Errorf("artifact must be written before the error returns: %v", statErr)
	}
}
