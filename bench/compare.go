package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// envInfo records where a result set was measured.
type envInfo struct {
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	GitSHA     string  `json:"git_sha"`
	Seed       int64   `json:"seed"`
	Runs       int     `json:"runs_per_workload"`
	Seconds    float64 `json:"seconds"`
}

// resultSet is what -set writes and -compare reads: several untraced
// runs of every workload, each with its own seed.
type resultSet struct {
	Env  envInfo      `json:"env"`
	Runs []*runResult `json:"runs"`
}

func environment(seed int64, runs int, seconds float64) envInfo {
	env := envInfo{
		GoVersion: runtime.Version(), CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: setGOMAXPROCS(),
		GOGC: "100", GitSHA: "unknown", Seed: seed, Runs: runs, Seconds: seconds,
	}
	if v := os.Getenv("GOGC"); v != "" {
		env.GOGC = v
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitSHA = strings.TrimSpace(string(out))
	}
	return env
}

// runSet runs every workload `runs` times untraced, seeds seed..seed+runs-1,
// and writes the set. Workloads alternate so drift in the machine's state
// spreads over all of them.
func runSet(path string, seed int64, seconds float64, runs int, outDir string) error {
	set := resultSet{Env: environment(seed, runs, seconds)}
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			res, err := runOne(os.Stdout, runConfig{Workload: w.Name, Seed: seed + int64(r), Seconds: seconds, Warmup: warmup, OutDir: outDir}, true)
			if err != nil {
				return err
			}
			res.Templates = nil
			set.Runs = append(set.Runs, res)
		}
	}
	return writeJSON(path, set)
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

func (s *resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// errRegressed makes -compare exit non-zero.
var errRegressed = fmt.Errorf("at least one metric regressed beyond its bound")

// compareSets prints one row per (end-to-end metric, workload): both
// medians with their quartiles, the change of B against A with A as its
// base, the bound, and a verdict. A change is "regressed" when B's median
// is worse than A's by more than the bound and by more than either side's
// own spread; "unresolved" when a side's spread (Q3-Q1 over its median) is
// wider than the bound, so the runs cannot tell; "ok" otherwise.
func compareSets(w io.Writer, pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s (%s, %s, git %.12s, %d runs/workload)\nB = %s (%s, %s, git %.12s, %d runs/workload)\n",
		pathA, a.Env.GoVersion, a.Env.CPU, a.Env.GitSHA, a.Env.Runs, pathB, b.Env.GoVersion, b.Env.CPU, b.Env.GitSHA, b.Env.Runs)
	fmt.Fprintf(w, "%-9s %-16s %36s %36s %22s %6s %7s  %s\n", "workload", "metric", "A median [Q1, Q3]", "B median [Q1, Q3]", "B vs A (base A)", "bound", "spread", "verdict")
	regressed := false
	for _, wl := range workloads {
		for _, m := range endToEnd {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			spread := max((a3-a1)/a2, (b3-b1)/b2)
			verdict := "ok"
			switch {
			case worse > m.Bound && worse > spread:
				verdict, regressed = "regressed", true
			case spread > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-9s %-16s %12.6g [%9.5g, %9.5g] %12.6g [%9.5g, %9.5g] %+8.2f%% of %-9.5g %5.0f%% %6.2f%%  %s\n",
				wl.Name, m.Name, a2, a1, a3, b2, b1, b3, 100*(b2-a2)/a2, a2, 100*m.Bound, 100*spread, verdict)
		}
	}
	if regressed {
		return errRegressed
	}
	return nil
}
