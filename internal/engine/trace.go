package engine

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Span is one timed step of a query's execution, offset-relative to the
// start of the query so spans can be laid out on a single timeline.
type Span struct {
	// Name is the step kind: plan, probe, seed, eval, scan, merge.
	Name string
	// Start is the offset from the beginning of the query.
	Start time.Duration
	// Dur is the span's duration.
	Dur time.Duration
	// Note carries step detail: the probe's label and scan stats, the
	// hits seeded of those probed, the plan-cache state, or the shard
	// count.
	Note string
}

// Trace collects timed spans for one query when ExecOptions.Trace is
// set; it is surfaced on Stats.Trace. A nil *Trace records nothing and
// reads no clock, and callers format a span's note only when the trace
// is non-nil, so untraced queries pay only nil checks.
type Trace struct {
	begin time.Time
	mu    sync.Mutex
	// Spans lists the recorded steps in completion order. Read it only
	// after the query returns.
	Spans []Span
}

func newTrace() *Trace { return &Trace{begin: time.Now()} }

// now returns the current instant for span timing, or the zero time on a
// nil trace.
func (t *Trace) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// add records one span from start to now (nil-safe no-op).
func (t *Trace) add(name, note string, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.Spans = append(t.Spans, Span{Name: name, Start: start.Sub(t.begin), Dur: end.Sub(start), Note: note})
	t.mu.Unlock()
}

// absorb appends another trace's spans (the spans a parallel stage
// recorded against its own trace) onto t in their recorded order.
func (t *Trace) absorb(o *Trace) {
	if t == nil || o == nil {
		return
	}
	o.mu.Lock()
	spans := o.Spans
	o.mu.Unlock()
	t.mu.Lock()
	t.Spans = append(t.Spans, spans...)
	t.mu.Unlock()
}

// Render formats the trace as one line per span:
//
//	plan     +12µs      347µs  cache=miss
func (t *Trace) Render() string {
	if t == nil || len(t.Spans) == 0 {
		return ""
	}
	var b strings.Builder
	for _, s := range t.Spans {
		fmt.Fprintf(&b, "%-8s +%-10s %-10s %s\n", s.Name, s.Start.Round(time.Microsecond), s.Dur.Round(time.Microsecond), s.Note)
	}
	return b.String()
}
