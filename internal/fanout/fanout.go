// Package fanout runs the items of one call — the candidates of an exact
// rerank — on the calling goroutine and on as many helper goroutines as
// the process has idle cores for.
//
// The process holds one budget of GOMAXPROCS − 1 helper tokens, shared by
// every call. A call takes what it can by try-acquire, which never waits,
// and starts one helper per token it got; a helper returns its token once
// nothing is left to claim. With every token taken by other calls'
// helpers, a call starts no goroutine and its caller runs every item
// itself, so a loaded process stops paying for parallelism it has no core
// to run. A helper the scheduler has not started yet keeps its token, so
// the budget also tightens when helpers queue for a core.
//
// The caller and its helpers claim items from one atomic cursor, so each
// item runs exactly once, on whichever goroutine claimed it. The caller
// waits only for the items a helper actually claimed: a helper the
// scheduler starts late, after every item was claimed, exits without
// calling f. The state a helper reads is therefore allocated per call,
// never taken from a pool that could recycle it while such a helper still
// holds it.
//
// Workers is the other shape: a batch of independent calls — the queries
// of a batch search, the deletions of a batch delete, and the cluster
// coordinator's scatter of one call to its shard nodes — on a fixed number
// of goroutines the caller chose, stopped by the first error. A batch one
// claimer would run runs on the caller, with no goroutine; when the
// caller's context is done, Workers returns its error, not one of f's.
package fanout

import (
	"cmp"
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// inUse counts the helper tokens held across the process.
var inUse atomic.Int64

// testHookHelperStart, when set by a test, runs first on every helper.
var testHookHelperStart func()

// acquire takes up to want helper tokens from the budget of GOMAXPROCS − 1
// without waiting, and returns how many it got.
func acquire(want int) int {
	if want <= 0 {
		return 0
	}
	budget := int64(runtime.GOMAXPROCS(0) - 1)
	for {
		used := inUse.Load()
		got := min(int64(want), budget-used)
		if got <= 0 {
			return 0
		}
		if inUse.CompareAndSwap(used, used+got) {
			return int(got)
		}
	}
}

// call is the state one Each shares with its helpers.
type call struct {
	ctx     context.Context
	f       func(i int)
	n       int64
	next    atomic.Int64 // the claim cursor
	pending atomic.Int64 // items claimed or not, whose f has not returned
	// done receives one value from the helper that finishes the last
	// pending item, when that is not the caller.
	done chan struct{}
}

// Each runs f(i) for every i in [0, n): on the calling goroutine, and on
// at most maxHelpers helper goroutines, one per token the budget spares.
// It returns once every item has been claimed and every claimed item has
// run. f must be safe to call from several goroutines at once. A cancelled
// ctx stops the claimers between items; Each then returns ctx.Err(). A
// call that gets no token runs the items in order on the caller, with
// nothing allocated for helpers it does not have.
func Each(ctx context.Context, n, maxHelpers int, f func(i int)) error {
	helpers := acquire(min(maxHelpers, n-1))
	if helpers == 0 {
		for i := range n {
			if ctx.Err() == nil {
				f(i)
			}
		}
		return ctx.Err()
	}
	c := &call{ctx: ctx, f: f, n: int64(n), done: make(chan struct{}, 1)}
	c.pending.Store(int64(n))
	for range helpers {
		go c.help()
	}
	if c.pending.Add(-c.claim()) > 0 {
		<-c.done
	}
	return ctx.Err()
}

// help is one helper: it claims items until none is left, gives its token
// back, and wakes the caller if it finished the last pending item.
func (c *call) help() {
	if testHookHelperStart != nil {
		testHookHelperStart()
	}
	ran := c.claim()
	inUse.Add(-1)
	if ran > 0 && c.pending.Add(-ran) == 0 {
		c.done <- struct{}{}
	}
}

// claim runs f on items taken from the cursor until the cursor passes n,
// skipping f once ctx is cancelled, and returns how many items it took.
func (c *call) claim() int64 {
	var took int64
	for {
		i := c.next.Add(1) - 1
		if i >= c.n {
			return took
		}
		if c.ctx.Err() == nil {
			c.f(int(i))
		}
		took++
	}
}

// Workers runs f(ctx, i) for every i in [0, n) on workers goroutines,
// each claiming the next item until none is left, and returns once they
// all have stopped. When one claimer would do (n ≤ 1 or workers ≤ 1), the
// calling goroutine runs the items in order under parent itself, with no
// goroutine and no child context. It fails fast: the first error f
// returns cancels the ctx every running item sees and stops the claiming.
// A done parent also stops the claiming, so an item may never run. When
// parent is done Workers returns parent.Err(), so a cancelled caller sees
// its own error rather than a secondary one from f; otherwise it returns
// the first error f returned.
func Workers(parent context.Context, n, workers int, f func(ctx context.Context, i int) error) error {
	if n <= 1 || workers <= 1 {
		for i := 0; i < n && parent.Err() == nil; i++ {
			if err := f(parent, i); err != nil {
				return cmp.Or(parent.Err(), err)
			}
		}
		return parent.Err()
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		failOnce sync.Once
		firstErr error
	)
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := f(ctx, i); err != nil {
					failOnce.Do(func() {
						firstErr = err
						cancel()
					})
					return
				}
			}
		}()
	}
	wg.Wait()
	return cmp.Or(parent.Err(), firstErr)
}
