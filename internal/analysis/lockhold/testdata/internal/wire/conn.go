// Package wire stands in for geodabs/internal/wire — this fixture module
// is named geodabs so the package sits at that import path — and seeds
// its framed connection's findings: a frame read or sent under a node's,
// a coordinator's or a server connection's lock blocks every reader and
// writer of that state on one peer's socket.
package wire

import (
	"context"
	"net"
	"sync"
)

type Conn struct{ nc net.Conn }

func (c *Conn) ReadFrame() ([]byte, error) { return nil, nil }
func (c *Conn) SendFrame(b []byte) error   { return nil }
func (c *Conn) WriteFrames(b []byte) error { return nil }
func (c *Conn) Buffer() []byte             { return nil }
func (c *Conn) BeginFrame() []byte         { return nil }

// nodeConn embeds Conn as pooled connections (PoolConn) do.
type nodeConn struct{ *Conn }

type Node struct {
	mu sync.RWMutex
	f  *Conn
}

func (n *Node) badFrameReadUnderRLock() {
	n.mu.RLock()
	n.f.ReadFrame() // want `frame read .* while "n.mu" is held`
	n.mu.RUnlock()
}

func (n *Node) badFrameWriteUnderLock(b []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.f.WriteFrames(b) // want `frame write .* while "n.mu" is held`
}

// goodSendAfterUnlock builds the frame under the lock and sends it after.
func (n *Node) goodSendAfterUnlock(b []byte) error {
	n.mu.RLock()
	out := append(n.f.BeginFrame(), b...)
	n.mu.RUnlock()
	return n.f.SendFrame(out)
}

type Coordinator struct {
	mu sync.RWMutex
	nc *nodeConn
}

func (c *Coordinator) badFrameSendUnderLock(b []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nc.SendFrame(b) // want `frame send .* while "c.mu" is held`
}

// serverConn queues reply frames under its lock, as geodabsd's
// connections do.
type serverConn struct {
	mu      sync.Mutex
	f       *Conn
	pending []byte
}

func (s *serverConn) badFlushUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.f.WriteFrames(s.pending) // want `frame write .* while "s.mu" is held`
}

// goodFlushAfterUnlock is the coalescing writer: it swaps the queued
// frames out under the lock and writes them after releasing it.
func (s *serverConn) goodFlushAfterUnlock() {
	s.mu.Lock()
	buf := s.pending
	s.pending = s.f.Buffer()
	s.mu.Unlock()
	s.f.WriteFrames(buf)
}

// Pool stands in for the pooled call both clients make: it may dial,
// and it writes a frame and reads one.
type Pool[S any] struct{}

type PoolConn[S any] struct{ *Conn }

func (p *Pool[S]) Call(ctx context.Context, exchange func(*PoolConn[S]) error) error { return nil }

// client holds a pool whose call bookkeeping sits under its own lock.
type client struct {
	mu    sync.Mutex
	pool  *Pool[struct{}]
	calls int
}

func (c *client) badCallUnderLock(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pool.Call(ctx, func(*PoolConn[struct{}]) error { return nil }) // want `pooled call .* while "c.mu" is held`
}

// goodCountThenCall updates the bookkeeping under the lock and calls
// after releasing it.
func (c *client) goodCountThenCall(ctx context.Context) error {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return c.pool.Call(ctx, func(*PoolConn[struct{}]) error { return nil })
}
