package wire

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

var errTestPoolClosed = errors.New("test pool closed")

// testPool is a one-connection Pool over in-memory pipes: every dial
// counts itself and hands the far end of a fresh net.Pipe to serve, on
// its own goroutine.
type testPool struct {
	*Pool[struct{}]
	dials atomic.Int32
}

func newTestPool(t *testing.T, serve func(*Conn)) *testPool {
	t.Helper()
	tp := &testPool{}
	tp.Pool = NewPool[struct{}](1, MaxFrame, errTestPoolClosed, func(context.Context) (net.Conn, error) {
		near, far := net.Pipe()
		tp.dials.Add(1)
		go serve(NewConn(far, MaxFrame))
		return near, nil
	})
	t.Cleanup(func() { tp.Close() })
	return tp
}

// echo answers every frame with its own payload until the connection
// fails.
func echo(c *Conn) {
	defer c.NetConn().Close()
	for {
		p, err := c.ReadFrame()
		if err != nil || c.SendFrame(append(c.BeginFrame(), p...)) != nil {
			return
		}
	}
}

// mute reads one request, reports it on got, and never answers: the
// caller stays blocked in its read. It reports on closed the error of
// its next read, which returns once the caller's end is closed.
func mute(got chan<- struct{}, closed chan<- error) func(*Conn) {
	return func(c *Conn) {
		defer c.NetConn().Close()
		if _, err := c.ReadFrame(); err != nil {
			return
		}
		got <- struct{}{}
		_, err := c.ReadFrame()
		closed <- err
	}
}

// ping is an exchange: it sends a frame and reads its reply.
func ping(pc *PoolConn[struct{}]) error {
	if err := pc.SendFrame(append(pc.BeginFrame(), "ping"...)); err != nil {
		return err
	}
	_, err := pc.ReadFrame()
	return err
}

// TestPoolCallUncancellable: a context that can never be cancelled takes
// no poke, so its call allocates nothing of its own, and its connection
// goes back to the idle set for the next call. A cancellable context's
// call, which does take the poke, allocates: the measurement can see it.
func TestPoolCallUncancellable(t *testing.T) {
	tp := newTestPool(t, echo)
	ctx := context.Background()
	for range 3 {
		if err := tp.Call(ctx, ping); err != nil {
			t.Fatal(err)
		}
	}
	if n := tp.dials.Load(); n != 1 {
		t.Fatalf("3 calls dialed %d times, want 1: the connection did not go back to the idle set", n)
	}
	if raceEnabled {
		return
	}
	call := func(ctx context.Context) func() {
		return func() {
			if err := tp.Call(ctx, ping); err != nil {
				t.Fatal(err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, call(ctx)); allocs != 0 {
		t.Errorf("a call under context.Background: %.2f allocs/op, want 0", allocs)
	}
	cancellable, cancel := context.WithCancel(ctx)
	defer cancel()
	if allocs := testing.AllocsPerRun(100, call(cancellable)); allocs == 0 {
		t.Errorf("a call under a cancellable context: 0 allocs/op, want its poke's")
	}
	if n := tp.dials.Load(); n != 1 {
		t.Errorf("%d dials, want 1", n)
	}
}

// TestPoolCallCancelMidExchange: cancelling the context of a call blocked
// in its read aborts the read and returns the context's error; the
// connection is closed, never pooled, and the next call dials afresh.
func TestPoolCallCancelMidExchange(t *testing.T) {
	got, closed := make(chan struct{}, 1), make(chan error, 1)
	var dialed atomic.Bool
	tp := newTestPool(t, func(c *Conn) {
		if dialed.Swap(true) {
			echo(c)
		} else {
			mute(got, closed)(c)
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-got
		cancel()
	}()
	if err := tp.Call(ctx, ping); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call returned %v, want context.Canceled", err)
	}
	select {
	case err := <-closed:
		if err == nil {
			t.Fatal("the peer read a second frame from the cancelled call's connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the cancelled call's connection stayed open")
	}
	if err := tp.Call(context.Background(), ping); err != nil {
		t.Fatal(err)
	}
	if n := tp.dials.Load(); n != 2 {
		t.Errorf("%d dials, want 2: the call after the cancelled one must dial afresh", n)
	}
}

// TestPoolCancelAfterReturn: callers cancel their context the moment a
// call returns, which must not poison the connection the call pooled:
// every later call reuses it and succeeds.
func TestPoolCancelAfterReturn(t *testing.T) {
	tp := newTestPool(t, echo)
	for i := range 20 {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		err := tp.Call(ctx, ping)
		cancel()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if n := tp.dials.Load(); n != 1 {
		t.Errorf("20 calls dialed %d times, want 1", n)
	}
}

// TestPoolCloseDuringCall: Close fails a call blocked on its connection,
// even one whose context can never poke it, and every later call fails
// with the pool's closed error without dialing.
func TestPoolCloseDuringCall(t *testing.T) {
	got, closed := make(chan struct{}, 1), make(chan error, 1)
	tp := newTestPool(t, mute(got, closed))
	errc := make(chan error, 1)
	go func() { errc <- tp.Call(context.Background(), ping) }()
	<-got
	if err := tp.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("a call whose connection Close tore down succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left a call blocked")
	}
	if err := tp.Call(context.Background(), ping); !errors.Is(err, errTestPoolClosed) {
		t.Errorf("call after Close returned %v, want the pool's closed error", err)
	}
	if n := tp.dials.Load(); n != 1 {
		t.Errorf("%d dials, want 1", n)
	}
}
