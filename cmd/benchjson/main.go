// Command benchjson converts `go test -bench` text output into a JSON
// benchmark artifact. It reads the benchmark log from stdin (or from file
// arguments), extracts name, iterations, ns/op, B/op, and allocs/op for
// every benchmark line, and pairs up the experiment variants the repo's
// benchmarks encode in their names:
//
//   - scan vs indexed        ("Scan"/"scan" ↔ "Indexed"/"indexed")
//   - unprepared vs prepared ("Unprepared" ↔ "Prepared")
//   - serial vs parallel     ("par=1" ↔ "par=8")
//   - cold vs cached probes  ("Cold" ↔ "Cached")
//   - per-row vs streaming   ("PerRowLoader" ↔ "StreamingPipeline")
//   - synopsis off vs on     ("SynopsisOff" ↔ "SynopsisOn")
//   - doc vs node granular   ("DocGranular" ↔ "NodeGranular")
//   - full walk vs seeded    ("FullWalk" ↔ "Seeded")
//
// Each pair records the speedup ratio baseline_ns / variant_ns — above 1.0
// means the variant (indexed, prepared, parallel, ...) is faster. Usage:
//
//	go test -run '^$' -bench . -benchmem . > bench.txt
//	go run ./cmd/benchjson -o BENCH_PR2.json bench.txt
//
// -agg median collapses duplicate benchmark names — several `-count`
// runs, or concatenated bench.txt files — into one entry per name by
// taking the per-field median. The bench-gate CI job runs its subset
// three times and aggregates this way so one noisy run on a shared
// runner cannot fake (or mask) a regression.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Pair relates a baseline benchmark to its optimized variant. Ratio is
// baseline ns/op divided by variant ns/op: the variant's speedup factor.
type Pair struct {
	Kind     string  `json:"kind"`
	Baseline string  `json:"baseline"`
	Variant  string  `json:"variant"`
	Ratio    float64 `json:"ratio"`
}

// Report is the JSON artifact layout.
type Report struct {
	Benchmarks []Benchmark `json:"benchmarks"`
	Pairs      []Pair      `json:"pairs"`
}

// benchLine matches `go test -bench` output, including sub-benchmarks
// (slashes in the name) and the -benchmem columns when present:
//
//	BenchmarkE1_Q1NumericScan-8    100    1234567 ns/op    4096 B/op    12 allocs/op
//	BenchmarkE12_Scaling/docs=4000/scan/par=8-8    5    9876543 ns/op
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+(\d+) allocs/op)?`)

func parse(r io.Reader) ([]Benchmark, error) {
	var out []Benchmark
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		b := Benchmark{Name: m[1]}
		b.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
		b.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			b.BytesPerOp, _ = strconv.ParseFloat(m[4], 64)
		}
		if m[5] != "" {
			b.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		out = append(out, b)
	}
	return out, sc.Err()
}

// pairRules maps a baseline benchmark name to its variant's name. Order
// matters only for the kind label reported when a name matches several
// rules (it cannot, with the current naming scheme).
var pairRules = []struct {
	kind string
	from string
	to   string
}{
	{"scan-vs-indexed", "Scan", "Indexed"},
	{"scan-vs-indexed", "scan", "indexed"},
	{"unprepared-vs-prepared", "Unprepared", "Prepared"},
	{"serial-vs-parallel", "par=1", "par=8"},
	{"cold-vs-cached", "Cold", "Cached"},
	{"perrow-vs-streaming", "PerRowLoader", "StreamingPipeline"},
	{"nosynopsis-vs-synopsis", "SynopsisOff", "SynopsisOn"},
	{"docgranular-vs-nodegranular", "DocGranular", "NodeGranular"},
	{"fullwalk-vs-seeded", "FullWalk", "Seeded"},
}

// median of one numeric field across a group of same-name benchmarks.
func median(group []Benchmark, field func(Benchmark) float64) float64 {
	vals := make([]float64, len(group))
	for i, b := range group {
		vals[i] = field(b)
	}
	sort.Float64s(vals)
	if n := len(vals); n%2 == 1 {
		return vals[n/2]
	} else {
		return (vals[n/2-1] + vals[n/2]) / 2
	}
}

// aggregate collapses duplicate benchmark names into one entry per name.
// Mode "none" keeps every parsed line; "median" takes the per-field
// median in first-appearance order.
func aggregate(benches []Benchmark, mode string) ([]Benchmark, error) {
	switch mode {
	case "none":
		return benches, nil
	case "median":
	default:
		return nil, fmt.Errorf("unknown -agg mode %q (want none or median)", mode)
	}
	var order []string
	groups := make(map[string][]Benchmark)
	for _, b := range benches {
		if _, ok := groups[b.Name]; !ok {
			order = append(order, b.Name)
		}
		groups[b.Name] = append(groups[b.Name], b)
	}
	out := make([]Benchmark, 0, len(order))
	for _, name := range order {
		g := groups[name]
		out = append(out, Benchmark{
			Name:        name,
			Iterations:  int64(median(g, func(b Benchmark) float64 { return float64(b.Iterations) })),
			NsPerOp:     median(g, func(b Benchmark) float64 { return b.NsPerOp }),
			BytesPerOp:  median(g, func(b Benchmark) float64 { return b.BytesPerOp }),
			AllocsPerOp: int64(median(g, func(b Benchmark) float64 { return float64(b.AllocsPerOp) })),
		})
	}
	return out, nil
}

func pairs(benches []Benchmark) []Pair {
	byName := make(map[string]Benchmark, len(benches))
	for _, b := range benches {
		byName[b.Name] = b
	}
	seen := make(map[string]bool)
	// Non-nil so a run with no pairable benchmarks (a partial bench.out,
	// a -bench filter) still emits "pairs": [] rather than null.
	out := make([]Pair, 0)
	for _, b := range benches {
		for _, rule := range pairRules {
			if !strings.Contains(b.Name, rule.from) {
				continue
			}
			variant := strings.Replace(b.Name, rule.from, rule.to, 1)
			v, ok := byName[variant]
			if !ok || variant == b.Name || seen[b.Name+"|"+variant] {
				continue
			}
			seen[b.Name+"|"+variant] = true
			p := Pair{Kind: rule.kind, Baseline: b.Name, Variant: variant}
			if v.NsPerOp > 0 {
				p.Ratio = b.NsPerOp / v.NsPerOp
			}
			out = append(out, p)
		}
	}
	return out
}

func run(args []string, stdin io.Reader) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	outPath := fs.String("o", "BENCH_PR2.json", "output JSON path (- for stdout)")
	agg := fs.String("agg", "none", "duplicate-name aggregation: none keeps every line, median collapses repeated runs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var benches []Benchmark
	if fs.NArg() == 0 {
		var err error
		if benches, err = parse(stdin); err != nil {
			return err
		}
	}
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		bs, err := parse(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		benches = append(benches, bs...)
	}
	if len(benches) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	benches, err := aggregate(benches, *agg)
	if err != nil {
		return err
	}
	report := Report{Benchmarks: benches, Pairs: pairs(benches)}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *outPath == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks, %d pairs -> %s\n",
		len(benches), len(report.Pairs), *outPath)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdin); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
