package guard

import (
	"fmt"
	"sync"
)

// ShardFloor is the smallest input worth sharding: below it the goroutine
// overhead outweighs the work and Shards runs one shard. A variable so
// tests can lower it.
var ShardFloor = 32

// Shards runs f over n items split into contiguous shards and returns
// the shard outputs in shard order. With par > 1 and n >= ShardFloor
// there are min(par, n) shards, shard i covering [i·n/k, (i+1)·n/k);
// otherwise one shard covers [0, n). One shard runs on the caller's
// goroutine; k > 1 shards each run on a goroutine of their own while the
// caller waits, so none sits in the caller's run queue behind the caller
// (the scheduler steals that slot last). A shard's panic is contained
// as a Violation of kind Internal, since the query boundary's recover
// cannot reach another goroutine. The error of the first failing shard,
// in shard order, is returned; a failing shard does not stop the others.
func Shards[T any](par, n int, f func(lo, hi int) (T, error)) ([]T, error) {
	k := 1
	if par > 1 && n >= ShardFloor {
		k = min(par, n)
	}
	if k == 1 {
		out, err := shard(f, 0, n)
		if err != nil {
			return nil, err
		}
		return []T{out}, nil
	}
	return fanOut(k, n, f)
}

// fanOut runs Shards' k > 1 shards. It is a function of its own because
// the WaitGroup and the goroutine closure escape to the heap; the
// one-shard path allocates only its result.
func fanOut[T any](k, n int, f func(lo, hi int) (T, error)) ([]T, error) {
	outs := make([]T, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = shard(f, i*n/k, (i+1)*n/k)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// shard runs f over [lo, hi), converting a panic into an Internal
// violation.
func shard[T any](f func(lo, hi int) (T, error), lo, hi int) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &Violation{Kind: Internal, Msg: fmt.Sprintf("panic: %v", r)}
		}
	}()
	return f(lo, hi)
}
