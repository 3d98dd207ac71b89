package fanout

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs the test at GOMAXPROCS procs, so the budget is
// procs − 1 tokens whatever the machine, and leaves no helper of its own
// running: the hook is set and cleared only while no helper can read it.
func withProcs(t *testing.T, procs int, hook func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	quiesce()
	testHookHelperStart = hook
	t.Cleanup(func() {
		quiesce()
		testHookHelperStart = nil
		runtime.GOMAXPROCS(prev)
	})
}

// quiesce waits until every helper has given its token back, which a
// helper does after its last read of the call and the hook.
func quiesce() {
	for inUse.Load() > 0 {
		runtime.Gosched()
	}
}

// TestEachRunsOnCallerWhenBudgetTaken: with every token held elsewhere, a
// call starts no helper and its caller runs every item. Once the tokens
// are back, the same call starts one helper per token it may use.
func TestEachRunsOnCallerWhenBudgetTaken(t *testing.T) {
	var started atomic.Int64
	withProcs(t, 4, func() { started.Add(1) })
	held := acquire(1 << 20)
	if held != 3 {
		t.Fatalf("acquired %d tokens at GOMAXPROCS=4, want 3", held)
	}
	const n = 64
	ran := make([]int, n) // written by the caller alone, so no lock
	if err := Each(context.Background(), n, n-1, func(i int) { ran[i]++ }); err != nil {
		t.Fatal(err)
	}
	inUse.Add(-int64(held))
	if got := started.Load(); got != 0 {
		t.Fatalf("%d helpers started with every token held, want 0", got)
	}
	for i, c := range ran {
		if c != 1 {
			t.Fatalf("item %d ran %d times, want 1", i, c)
		}
	}

	if err := Each(context.Background(), n, 2, func(int) {}); err != nil {
		t.Fatal(err)
	}
	quiesce()
	if got := started.Load(); got != 2 {
		t.Fatalf("%d helpers started with the budget free and 2 wanted, want 2", got)
	}
}

// TestLateHelperCallsNothing holds a helper at its start until the call
// has returned: it finds every item claimed and must not call f — by then
// f's state may belong to the caller's next use of it.
func TestLateHelperCallsNothing(t *testing.T) {
	gate := make(chan struct{})
	withProcs(t, 2, func() { <-gate })
	var calls atomic.Int64
	if err := Each(context.Background(), 8, 7, func(int) { calls.Add(1) }); err != nil {
		t.Fatal(err)
	}
	before := calls.Load()
	close(gate)
	quiesce()
	if before != 8 {
		t.Fatalf("f ran %d times before the call returned, want 8", before)
	}
	if got := calls.Load() - before; got != 0 {
		t.Fatalf("a helper started after the call returned ran f %d times, want 0", got)
	}
}

// TestEachRunsEveryItemOnce drives 8 concurrent callers through one budget:
// every item of every call runs exactly once, and has run by the time its
// call returns.
func TestEachRunsEveryItemOnce(t *testing.T) {
	withProcs(t, max(4, runtime.GOMAXPROCS(0)), nil)
	const callers, calls, n = 8, 50, 257
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range calls {
				counts := make([]atomic.Int32, n)
				err := Each(context.Background(), n, n-1, func(i int) {
					spin(i)
					counts[i].Add(1)
				})
				if err != nil {
					t.Error(err)
					return
				}
				for i := range counts {
					if got := counts[i].Load(); got != 1 {
						t.Errorf("item %d ran %d times by the time its call returned, want 1", i, got)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestEachHonoursCancellation cancels mid-call: once cancel has returned,
// no claimer starts an item it had not already checked ctx for, and Each
// returns ctx.Err().
func TestEachHonoursCancellation(t *testing.T) {
	withProcs(t, 4, nil)
	ctx, cancel := context.WithCancel(context.Background())
	const n = 10000
	var calls, atCancel atomic.Int64
	err := Each(ctx, n, n-1, func(int) {
		if calls.Add(1) == 100 {
			cancel()
			atCancel.Store(calls.Load())
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Each of the other (at most 3) claimers may have passed its check of
	// ctx before cancel returned, and starts nothing after that item.
	if got, cut := calls.Load(), atCancel.Load(); got > cut+3 {
		t.Fatalf("f ran %d times, %d of them after the cancellation returned; want at most 3", got, got-cut)
	}
}

// TestEachWithoutHelperAllocatesNothing: at GOMAXPROCS 1 the budget has
// no token, so a call runs every item on the caller and allocates nothing
// — no call state, no done channel. A cancellation there stops the items
// at once: the caller is the only claimer.
func TestEachWithoutHelperAllocatesNothing(t *testing.T) {
	withProcs(t, 1, nil)
	ctx := context.Background()
	var sum int
	f := func(i int) { sum += i }
	if err := Each(ctx, 100, 99, f); err != nil || sum != 4950 {
		t.Fatalf("Each = %v with sum %d, want nil and 4950", err, sum)
	}
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(100, func() { Each(ctx, 100, 99, f) }); allocs != 0 {
			t.Errorf("Each without a helper: %.2f allocs/op, want 0", allocs)
		}
	}
	cctx, cancel := context.WithCancel(ctx)
	calls := 0
	err := Each(cctx, 1000, 999, func(int) {
		if calls++; calls == 100 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) || calls != 100 {
		t.Fatalf("Each = %v after %d calls, want context.Canceled after 100", err, calls)
	}
}

// spinSink keeps spin's loop from being optimised away.
var spinSink atomic.Int64

// spin burns a little CPU, more for some items, so claimers interleave.
func spin(i int) {
	x := int64(i)
	for k := 0; k < 200*(1+i%4); k++ {
		x = x*6364136223846793005 + 1
	}
	spinSink.Add(x & 1)
}

// TestWorkers pins the fail-fast pool: the first error cancels the ctx the
// running items see and stops the claiming; a parent cancelled meanwhile
// wins the return over that error; a cancelled parent runs nothing and
// returns its error; fewer than one worker still runs every item; no
// items is no error; one claimer runs on the caller without allocating.
func TestWorkers(t *testing.T) {
	errBoom := errors.New("boom")
	t.Run("first error cancels", func(t *testing.T) {
		const n = 100
		var ran atomic.Int64
		err := Workers(context.Background(), n, 4, func(ctx context.Context, i int) error {
			ran.Add(1)
			if i == 1 {
				return errBoom
			}
			// Items 0, 2 and 3 are claimed before or beside item 1, and
			// return only once its error has cancelled their ctx.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(10 * time.Second):
				t.Errorf("item %d: ctx not cancelled by a sibling's error", i)
				return nil
			}
		})
		if !errors.Is(err, errBoom) {
			t.Fatalf("Workers = %v, want %v", err, errBoom)
		}
		if got := ran.Load(); got >= n {
			t.Fatalf("%d of %d items ran after the first error", got, n)
		}
	})
	t.Run("parent's error ahead of f's", func(t *testing.T) {
		for _, workers := range []int{2, 1} {
			parent, cancel := context.WithCancel(context.Background())
			err := Workers(parent, 10, workers, func(ctx context.Context, i int) error {
				cancel()
				return errBoom
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%d workers: Workers = %v, want %v", workers, err, context.Canceled)
			}
		}
	})
	t.Run("cancelled parent", func(t *testing.T) {
		parent, cancel := context.WithCancel(context.Background())
		cancel()
		var ran atomic.Int64
		err := Workers(parent, 10, 2, func(context.Context, int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) || ran.Load() != 0 {
			t.Fatalf("Workers = %v after %d items, want %v after none", err, ran.Load(), context.Canceled)
		}
	})
	for _, workers := range []int{0, -3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ran := make([]int, 10) // one worker: no lock needed
			if err := Workers(context.Background(), len(ran), workers, func(_ context.Context, i int) error {
				ran[i]++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i, c := range ran {
				if c != 1 {
					t.Fatalf("item %d ran %d times, want 1", i, c)
				}
			}
		})
	}
	for _, tc := range []struct{ n, workers int }{{1, 4}, {10, 1}} {
		t.Run(fmt.Sprintf("inline n=%d workers=%d", tc.n, tc.workers), func(t *testing.T) {
			parent := context.Background()
			var ran int
			f := func(ctx context.Context, i int) error {
				if ctx != parent || i != ran {
					t.Errorf("item %d of run %d under %v, want in order under the parent", i, ran, ctx)
				}
				ran++
				return nil
			}
			if err := Workers(parent, tc.n, tc.workers, f); err != nil || ran != tc.n {
				t.Fatalf("Workers = %v after %d items, want nil after %d", err, ran, tc.n)
			}
			ran = 0
			err := Workers(parent, tc.n, tc.workers, func(context.Context, int) error {
				ran++
				return errBoom
			})
			if !errors.Is(err, errBoom) || ran != 1 {
				t.Fatalf("Workers = %v after %d items, want %v after the first", err, ran, errBoom)
			}
			if raceEnabled {
				t.Skip("race detector instrumentation allocates")
			}
			if allocs := testing.AllocsPerRun(100, func() {
				ran = 0
				_ = Workers(parent, tc.n, tc.workers, f)
			}); allocs != 0 {
				t.Errorf("%.1f allocs/op, want 0: one claimer runs on the caller", allocs)
			}
		})
	}
	t.Run("no items", func(t *testing.T) {
		if err := Workers(context.Background(), 0, 4, func(context.Context, int) error {
			t.Error("f called with no items")
			return errBoom
		}); err != nil {
			t.Fatal(err)
		}
	})
}
