package guard

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

// Over random (par, n) the shard outputs are contiguous, non-empty ranges
// that concatenate in shard order to [0, n), with min(par, n) shards at
// or above the floor and one below it.
func TestShardsConcatenateInShardOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for round := 0; round < 500; round++ {
		par, n := rng.Intn(12)-1, rng.Intn(200)
		outs, err := Shards(par, n, func(lo, hi int) ([]int, error) {
			var out []int
			for i := lo; i < hi; i++ {
				out = append(out, i)
			}
			return out, nil
		})
		if err != nil {
			t.Fatalf("par=%d n=%d: %v", par, n, err)
		}
		want := 1
		if par > 1 && n >= ShardFloor {
			want = min(par, n)
		}
		if len(outs) != want {
			t.Fatalf("par=%d n=%d: %d shards, want %d", par, n, len(outs), want)
		}
		var all []int
		for i, out := range outs {
			if want > 1 && len(out) == 0 {
				t.Fatalf("par=%d n=%d: shard %d is empty", par, n, i)
			}
			if lo := i * n / want; len(out) > 0 && out[0] != lo {
				t.Fatalf("par=%d n=%d: shard %d starts at %d, want %d", par, n, i, out[0], lo)
			}
			all = append(all, out...)
		}
		if len(all) != n || !slices.IsSorted(all) || (n > 0 && all[n-1] != n-1) {
			t.Fatalf("par=%d n=%d: shards concatenate to %v", par, n, all)
		}
	}
}

// par <= 1, or n below the floor, runs one shard on the caller's
// goroutine; above the floor every shard has a goroutine of its own.
func TestShardsSerialRunsOnCaller(t *testing.T) {
	caller := goid()
	for _, c := range []struct{ par, n int }{{0, 100}, {1, 100}, {-3, 5}, {8, ShardFloor - 1}, {8, 0}} {
		var on string
		outs, err := Shards(c.par, c.n, func(lo, hi int) (int, error) {
			on = goid()
			return hi - lo, nil
		})
		if err != nil || len(outs) != 1 || outs[0] != c.n {
			t.Fatalf("par=%d n=%d: outs %v, err %v; want one shard of %d", c.par, c.n, outs, err, c.n)
		}
		if on != caller {
			t.Fatalf("par=%d n=%d: shard ran on goroutine %s, caller is %s", c.par, c.n, on, caller)
		}
	}
	ids := make([]string, 4)
	if _, err := Shards(4, 64, func(lo, hi int) (int, error) {
		ids[lo/16] = goid()
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{caller: true}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("shard goroutines %v, caller %s: want one new goroutine per shard", ids, caller)
		}
		seen[id] = true
	}
}

// goid returns the current goroutine's id from its stack header,
// "goroutine N [running]:".
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// With several failing shards, the first failing shard's error wins,
// whatever order the shards finish in, and every shard still runs.
func TestShardsFirstErrorInShardOrder(t *testing.T) {
	for round := 0; round < 50; round++ {
		var ran atomic.Int64
		_, err := Shards(8, 64, func(lo, hi int) (struct{}, error) {
			ran.Add(1)
			if shard := lo / 8; shard >= 3 && shard%2 == 1 {
				runtime.Gosched()
				return struct{}{}, fmt.Errorf("shard %d", shard)
			}
			return struct{}{}, nil
		})
		if err == nil || err.Error() != "shard 3" {
			t.Fatalf("err = %v, want shard 3's", err)
		}
		if ran.Load() != 8 {
			t.Fatalf("%d shards ran, want 8", ran.Load())
		}
	}
}

// A panicking shard — off the caller's goroutine or on it — becomes an
// Internal violation carrying the panic value, and the process survives
// to run more shards.
func TestShardsContainPanics(t *testing.T) {
	for _, bad := range []int{0, 5} {
		outs, err := Shards(8, 64, func(lo, hi int) (int, error) {
			if lo/8 == bad {
				panic("shard exploded")
			}
			return hi - lo, nil
		})
		v, ok := AsViolation(err)
		if !ok || v.Kind != Internal || !strings.Contains(v.Msg, "panic: shard exploded") || outs != nil {
			t.Fatalf("shard %d panic: outs %v, err %v; want an Internal violation", bad, outs, err)
		}
	}
	// A panic with an error value and one in a serial run are contained
	// the same way.
	_, err := Shards(1, 4, func(lo, hi int) (int, error) { panic(errors.New("boom")) })
	if v, ok := AsViolation(err); !ok || v.Kind != Internal || v.Msg != "panic: boom" {
		t.Fatalf("serial panic: err %v", err)
	}
	outs, err := Shards(4, 64, func(lo, hi int) (int, error) { return hi - lo, nil })
	if err != nil || len(outs) != 4 {
		t.Fatalf("after contained panics: outs %v, err %v", outs, err)
	}
}
