package main

import (
	"math"
	"sort"
)

// sample is one timed operation.
type sample struct {
	Tpl   int32
	Class opClass
	// Slice is the part of the window the operation finished in.
	Slice uint16
	NS    int64
}

// percentile returns the p-quantile (0 < p <= 1) of ascending values by
// nearest rank; 0 for no values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencies is the set of samples a metric is computed over, in ms.
type latencies struct {
	all   []float64           // every sample, ascending
	byTpl map[int32][]float64 // per template, ascending
}

// collect gathers the samples keep admits.
func collect(samples []sample, keep func(sample) bool) latencies {
	l := latencies{byTpl: map[int32][]float64{}}
	for _, s := range samples {
		if !keep(s) {
			continue
		}
		ms := float64(s.NS) / 1e6
		l.all = append(l.all, ms)
		l.byTpl[s.Tpl] = append(l.byTpl[s.Tpl], ms)
	}
	sort.Float64s(l.all)
	for _, v := range l.byTpl {
		sort.Float64s(v)
	}
	return l
}

// geoMeanOfMedians is the geometric mean over templates of each
// template's median latency: every template counts once, however often
// it ran and however its latency compares with the others'.
func (l latencies) geoMeanOfMedians() float64 {
	if len(l.byTpl) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range l.byTpl {
		sum += math.Log(percentile(v, 0.5))
	}
	return math.Exp(sum / float64(len(l.byTpl)))
}

func (l latencies) p(p float64) float64 { return percentile(l.all, p) }

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) does (exclusive method),
// which is what the driver computes spreads with.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// overSlices computes f over the samples of each slice of a window and
// returns the median of the slices' values. The sandbox this runs in has
// slow spells that last seconds; a spell spoils the slices it covers, not
// the run, as long as it covers fewer than half of them.
func overSlices(samples []sample, slices int, keep func(sample) bool, f func(latencies) float64) float64 {
	per := make([][]sample, slices)
	for _, s := range samples {
		per[s.Slice] = append(per[s.Slice], s)
	}
	var values []float64
	for _, part := range per {
		if l := collect(part, keep); len(l.all) > 0 {
			values = append(values, f(l))
		}
	}
	return median(values)
}
