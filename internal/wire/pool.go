package wire

import (
	"context"
	"net"
	"sync"
	"time"
)

// Pool is a pool of framed connections to one peer, and the one
// request/reply call over them: the geodabsd client's and the
// coordinator's, per shard node. A call checks out an idle connection,
// LIFO, or dials a fresh one under its own context; a healthy connection
// goes back to the idle set after the call unless that set already holds
// size, and is closed otherwise. Connections serving calls are tracked,
// so Close tears their sockets down without waiting for the calls.
//
// S is per-connection storage the caller reuses call after call: the
// node client and the geodabsd client each decode their replies into it.
type Pool[S any] struct {
	size   int
	limit  int
	closed error
	dial   func(context.Context) (net.Conn, error)

	mu     sync.Mutex // guards idle, active and done
	idle   []*PoolConn[S]
	active map[*PoolConn[S]]struct{}
	done   bool
}

// PoolConn is one pooled connection and the storage that stays with it.
type PoolConn[S any] struct {
	*Conn
	State S
}

// NewPool returns an empty pool keeping at most size idle connections,
// each dialed with dial and framed with the frame cap limit. Calls after
// Close fail with closed.
func NewPool[S any](size, limit int, closed error, dial func(context.Context) (net.Conn, error)) *Pool[S] {
	return &Pool[S]{size: size, limit: limit, closed: closed, dial: dial, active: make(map[*PoolConn[S]]struct{})}
}

// Call runs exchange — write one request, read its reply — on a pooled
// connection. Cancelling ctx pokes the connection's deadline into the
// past, so blocked I/O aborts promptly; a ctx that can never be cancelled
// (ctx.Done() is nil) takes no poke, and the call allocates nothing of
// its own. A connection whose exchange failed may be out of step, and
// one the poke may have reached carries a stale deadline: both are
// closed, never pooled again, and the next call dials afresh. A failure
// once ctx has ended is ctx's error.
func (p *Pool[S]) Call(ctx context.Context, exchange func(*PoolConn[S]) error) error {
	err := ctx.Err()
	var pc *PoolConn[S]
	if err == nil {
		pc, err = p.checkout(ctx)
	}
	if err == nil {
		var stop func() bool
		if ctx.Done() != nil {
			stop = context.AfterFunc(ctx, func() { pc.nc.SetDeadline(time.Now()) })
		}
		err = exchange(pc)
		// A stop that finds the poke started cannot tell whether it has
		// landed yet: such a connection never goes back to the pool, so a
		// stale deadline can never fail a later call — callers routinely
		// cancel ctx the moment their call returns.
		p.checkin(pc, (stop == nil || stop()) && err == nil)
	}
	if err != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// checkout hands the caller a connection: an idle one when available, a
// fresh dial otherwise.
func (p *Pool[S]) checkout(ctx context.Context) (*PoolConn[S], error) {
	p.mu.Lock()
	if p.done {
		p.mu.Unlock()
		return nil, p.closed
	}
	if n := len(p.idle); n > 0 {
		pc := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.active[pc] = struct{}{}
		p.mu.Unlock()
		return pc, nil
	}
	p.mu.Unlock()
	nc, err := p.dial(ctx)
	if err != nil {
		return nil, err
	}
	pc := &PoolConn[S]{Conn: NewConn(nc, p.limit)}
	p.mu.Lock()
	if p.done { // closed while dialing
		p.mu.Unlock()
		nc.Close()
		return nil, p.closed
	}
	p.active[pc] = struct{}{}
	p.mu.Unlock()
	return pc, nil
}

// checkin ends pc's call: back to the idle set when healthy and there is
// room, closed otherwise.
func (p *Pool[S]) checkin(pc *PoolConn[S], healthy bool) {
	p.mu.Lock()
	delete(p.active, pc)
	if healthy && !p.done && len(p.idle) < p.size {
		p.idle = append(p.idle, pc)
		pc = nil
	}
	p.mu.Unlock()
	if pc != nil {
		pc.nc.Close()
	}
}

// Close closes every connection, idle and serving calls alike: in-flight
// calls fail with their sockets. Close is idempotent.
func (p *Pool[S]) Close() error {
	p.mu.Lock()
	if p.done {
		p.mu.Unlock()
		return nil
	}
	p.done = true
	conns := make([]*PoolConn[S], 0, len(p.idle)+len(p.active))
	conns = append(conns, p.idle...)
	for pc := range p.active {
		conns = append(conns, pc)
	}
	p.idle = nil
	p.mu.Unlock()
	var firstErr error
	for _, pc := range conns {
		if err := pc.nc.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
