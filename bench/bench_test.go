package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeConfig is a tiny run: small corpora, 200 ms windows.
func smokeConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{Workload: workload, Seed: 7, Seconds: 0.2, Trace: trace, Warmup: 100 * time.Millisecond, OutDir: t.TempDir(), Small: true}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload untraced and traced and checks that
// every named metric is emitted and finite, that nothing failed, and
// that the two cache regimes are the ones the workloads claim.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			cfg := smokeConfig(t, w.Name, trace)
			res, err := runOne(&out, cfg, false)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d: %v", w.Name, trace, res.Correct, res.Failed, res.Attempted, res.Failures)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, want %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, m := range defs {
				v, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", w.Name, trace, m.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0:
					t.Errorf("%s: metric %s = %v", w.Name, m.Name, v.Value)
				case !trace && v.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, want %q", w.Name, m.Name, v.Unit, m.Unit)
				}
				if !strings.Contains(out.String(), m.Name) {
					t.Errorf("%s trace=%v: %s not printed", w.Name, trace, m.Name)
				}
			}
			if !trace {
				continue
			}
			hit := res.Metrics["engine.plancache_hit_ratio"].Value
			if w.Name == "point" && hit <= 0.95 {
				t.Errorf("point: plan-cache hit ratio %.3f, want > 0.95: the pool must fit the cache", hit)
			}
			if w.Name == "adhoc" && hit >= 0.05 {
				t.Errorf("adhoc: plan-cache hit ratio %.3f, want < 0.05: every statement must be fresh", hit)
			}
			if cov := res.Metrics["harness.trace_coverage"].Value; cov < 0.85 || cov > 1.15 {
				t.Errorf("%s: trace coverage %.3f outside 0.85-1.15", w.Name, cov)
			}
			if _, err := os.Stat(filepath.Join(cfg.OutDir, "trace-"+w.Name+".json")); err != nil {
				t.Errorf("%s: spans not written: %v", w.Name, err)
			}
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json and the harness to one list of
// workloads and metrics: names, units, directions, bounds, run length.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), harness %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, harness %+v", kind, i, g, m)
			}
			if !metricName.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s: bad or repeated name %q", kind, m.Name)
			}
			seen[m.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25):
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the harness (must be in (0, 0.25])", kind, m.Name, g.Bound, m.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	for _, m := range endToEnd {
		if m.Name != "setup_s" && m.Bound > endToEnd[0].Bound {
			t.Errorf("%s: bound %v exceeds setup_s's, which must be the largest", m.Name, m.Bound)
		}
	}
}

// streamDigest hashes the first n ops of a workload's first client.
func streamDigest(t *testing.T, workload string, seed int64, n int) uint64 {
	t.Helper()
	b := &bench{cfg: runConfig{Workload: workload, Seed: seed}, clients: 2}
	c, err := generate(specFor(workload, true), seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b.corpus = c
	var s stream
	switch workload {
	case "analytic":
		b.templates = analyticTemplates
		s = newAnalyticStream(b.templates, seed)
	case "serve-rw":
		b.templates = append(append([]template(nil), eligibleTemplates[:len(eligibleTemplates)-1]...), writeTemplates...)
		if b.pool, err = buildPool(b.readTemplates(), c); err != nil {
			t.Fatal(err)
		}
		s = b.rwStream(0)
	case "adhoc":
		s = newAdhocStream(eligibleTemplates, c, seed)
	default:
		pool, err := buildPool(eligibleTemplates, c)
		if err != nil {
			t.Fatal(err)
		}
		s = newPointStream(eligibleTemplates, pool, seed)
	}
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		o := s.next()
		io.WriteString(h, o.Text)
		h.Write([]byte{0, byte(o.Class), byte(o.Lang)})
	}
	return h.Sum64()
}

// TestStreamDeterminism: one seed, one op stream; another seed, another.
func TestStreamDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, again, other := streamDigest(t, w.Name, 3, 500), streamDigest(t, w.Name, 3, 500), streamDigest(t, w.Name, 4, 500)
		if a != again {
			t.Errorf("%s: seed 3 gave two different op streams", w.Name)
		}
		if a == other {
			t.Errorf("%s: seeds 3 and 4 gave the same op stream", w.Name)
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

// TestCompare checks the three verdicts and the exit condition.
func TestCompare(t *testing.T) {
	set := func(scale, jitter float64) *resultSet {
		s := &resultSet{}
		for _, w := range workloads {
			for i := 0; i < 10; i++ {
				r := &runResult{Workload: w.Name, Metrics: map[string]metricValue{}}
				for _, m := range endToEnd {
					v := 100 * (1 + jitter*float64(i-5))
					if m.Name == "p95_ms" {
						v *= scale
					}
					r.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
				}
				s.Runs = append(s.Runs, r)
			}
		}
		return s
	}
	dir := t.TempDir()
	write := func(name string, s *resultSet) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, s); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", set(1, 0.001))
	var out bytes.Buffer
	if err := compareSets(&out, base, write("same.json", set(1, 0.001))); err != nil || strings.Contains(out.String(), "regressed") {
		t.Errorf("identical sets: err=%v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareSets(&out, base, write("slow.json", set(1.3, 0.001))); err != errRegressed || !strings.Contains(out.String(), "regressed") {
		t.Errorf("p95 30%% worse: err=%v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareSets(&out, base, write("noisy.json", set(1, 0.05))); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("spread wider than every bound: err=%v\n%s", err, out.String())
	}
}
