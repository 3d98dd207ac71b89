package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"geodabs/internal/wire"
)

// errStale is a replica's refusal of a read whose snapshot epoch its
// state does not yet cover; readCall falls back to the primary.
var errStale = errors.New("cluster: replica state does not cover the search snapshot")

// nodeConn is one framed TCP connection to a shard node, with the reply
// it decodes into, reused call after call. A call abandoned mid-flight
// leaves the stream out of step, so that connection is discarded rather
// than reused.
type nodeConn struct {
	*wire.Conn
	resp response
}

// client is the coordinator's connection pool to one node. In-flight
// calls are bounded by a semaphore sized to the pool (default 1, raised
// with WithPoolSize), acquired under the caller's context so a call
// queued behind stalled ones gives up when its own deadline expires.
// Idle connections are reused LIFO; a call that finds the pool empty
// dials a fresh connection under its own context. Active connections are
// tracked so close can tear down a stalled call's socket without waiting
// for the call to finish, and a connection poisoned by an abandoned call
// is dropped — the pool transparently redials on demand.
type client struct {
	addr string
	sem  chan struct{} // capacity = pool size: bounds in-flight calls

	mu     sync.Mutex // guards idle/active/closed
	idle   []*nodeConn
	active map[*nodeConn]struct{}
	closed bool
}

// dial connects to a node with a single-connection pool.
func dial(addr string) (*client, error) { return dialPool(addr, 1) }

// dialPool connects to a node, establishing one connection eagerly so a
// dead address fails at coordinator construction, and lazily growing up
// to size connections under load.
func dialPool(addr string, size int) (*client, error) {
	if size < 1 {
		size = 1
	}
	c := &client{
		addr:   addr,
		sem:    make(chan struct{}, size),
		active: make(map[*nodeConn]struct{}),
	}
	nc, err := c.connect(context.Background())
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.idle = append(c.idle, nc)
	c.mu.Unlock()
	return c, nil
}

// connect dials one fresh connection under ctx — a blackholed node then
// costs the caller its deadline, not the OS connect timeout.
func (c *client) connect(ctx context.Context) (*nodeConn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("cluster: dial %s: %w", c.addr, err)
	}
	return &nodeConn{Conn: wire.NewConn(conn, maxFrame)}, nil
}

// checkout hands the caller a live connection: an idle one when
// available, a fresh dial otherwise. The connection is registered as
// active so close can tear it down mid-call.
func (c *client) checkout(ctx context.Context) (*nodeConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: client to %s: %w", c.addr, ErrClosed)
	}
	if n := len(c.idle); n > 0 {
		nc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.active[nc] = struct{}{}
		c.mu.Unlock()
		return nc, nil
	}
	c.mu.Unlock()
	nc, err := c.connect(ctx)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed { // closed while we were dialing
		c.mu.Unlock()
		nc.NetConn().Close()
		return nil, fmt.Errorf("cluster: client to %s: %w", c.addr, ErrClosed)
	}
	c.active[nc] = struct{}{}
	c.mu.Unlock()
	return nc, nil
}

// checkin returns a healthy connection to the idle pool.
func (c *client) checkin(nc *nodeConn) {
	c.mu.Lock()
	delete(c.active, nc)
	if c.closed {
		c.mu.Unlock()
		nc.NetConn().Close()
		return
	}
	c.idle = append(c.idle, nc)
	c.mu.Unlock()
}

// discard drops a connection whose stream may be out of step or whose
// deadline a cancellation may have poked; the next call dials afresh.
func (c *client) discard(nc *nodeConn) {
	nc.NetConn().Close()
	c.mu.Lock()
	delete(c.active, nc)
	c.mu.Unlock()
}

// call performs one request/response round trip. A reply of the
// request's own kind is handed to use (which may be nil) before call
// returns — it is valid only until then, since a query reply's partial
// counts alias the connection's read buffer. An opError or opStale
// reply, a reply of another kind and an undecodable one are errors.
// Cancelling ctx aborts the in-flight I/O promptly (by poking the
// connection deadline) and returns the context's error.
func (c *client) call(ctx context.Context, req *request, use func(*response)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case c.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-c.sem }()
	nc, err := c.checkout(ctx)
	if err != nil {
		return err
	}
	stop := context.AfterFunc(ctx, func() { nc.NetConn().SetDeadline(time.Now()) })
	err = nc.roundTrip(req)
	// A stop that finds the poke started cannot tell whether it has landed
	// yet: such a connection never goes back to the pool, so a stale
	// deadline can never fail a later call.
	poked := !stop()
	if err != nil {
		c.discard(nc)
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		return err
	}
	switch resp := &nc.resp; resp.Kind {
	case req.Op:
		if use != nil {
			use(resp)
		}
	case opError:
		err = fmt.Errorf("cluster: node error: %s", resp.Err)
	case opStale:
		err = errStale
	default:
		err = fmt.Errorf("cluster: node answered a %s request with a %s frame", req.Op, resp.Kind)
	}
	if poked {
		c.discard(nc)
	} else {
		c.checkin(nc)
	}
	return err
}

// roundTrip sends req and decodes the reply into nc.resp.
func (nc *nodeConn) roundTrip(req *request) error {
	if err := nc.SendFrame(appendRequest(nc.BeginFrame(), req)); err != nil {
		return fmt.Errorf("cluster: send: %w", err)
	}
	p, err := nc.ReadFrame()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return errors.New("cluster: node closed connection")
		}
		return fmt.Errorf("cluster: receive: %w", err)
	}
	if err := nc.resp.decode(p); err != nil {
		return fmt.Errorf("cluster: malformed reply to a %s request: %w", req.Op, err)
	}
	return nil
}

// close tears down every pooled connection, including those serving
// in-flight calls — their I/O fails promptly instead of wedging.
func (c *client) close() error {
	c.mu.Lock()
	c.closed = true
	conns := make([]*nodeConn, 0, len(c.idle)+len(c.active))
	conns = append(conns, c.idle...)
	for nc := range c.active {
		conns = append(conns, nc)
	}
	c.idle = nil
	c.mu.Unlock()
	var firstErr error
	for _, nc := range conns {
		if err := nc.NetConn().Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
