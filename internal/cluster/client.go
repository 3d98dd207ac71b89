package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"

	"geodabs/internal/wire"
)

// errStale is a replica's refusal of a read whose snapshot epoch its
// state does not yet cover; readCall falls back to the primary.
var errStale = errors.New("cluster: replica state does not cover the search snapshot")

// client is the coordinator's connection pool to one node: a wire.Pool
// whose connections each keep the reply they decode into, reused call
// after call. In-flight calls are bounded by a semaphore sized to the
// pool (Options.PoolSize, default 1), acquired under the
// caller's context so a call queued behind stalled ones gives up when
// its own deadline expires; it also bounds the idle connections.
type client struct {
	addr string
	sem  chan struct{} // capacity = pool size: bounds in-flight calls
	pool *wire.Pool[response]
}

// dial connects to a node with a single-connection pool.
func dial(addr string) (*client, error) { return dialPool(addr, 1) }

// dialPool connects to a node, establishing one connection eagerly so a
// dead address fails at coordinator construction, and lazily growing up
// to size connections under load. Each dial runs under its call's
// context: a blackholed node then costs the caller its deadline, not the
// OS connect timeout.
func dialPool(addr string, size int) (*client, error) {
	size = max(size, 1)
	closed := fmt.Errorf("cluster: client to %s: %w", addr, ErrClosed)
	c := &client{
		addr: addr,
		sem:  make(chan struct{}, size),
		pool: wire.NewPool[response](size, maxFrame, closed, func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
			}
			return conn, nil
		}),
	}
	if err := c.pool.Call(context.Background(), func(*wire.PoolConn[response]) error { return nil }); err != nil {
		return nil, err
	}
	return c, nil
}

// call performs one request/response round trip. A reply of the
// request's own kind is handed to use (which may be nil) before call
// returns — it is valid only until then, since a query reply's partial
// counts alias the connection's read buffer. An opError or opStale
// reply, a reply of another kind and an undecodable one are errors.
// Cancelling ctx aborts the in-flight I/O promptly and returns the
// context's error.
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
	var kind op
	var msg string
	err := c.pool.Call(ctx, func(nc *wire.PoolConn[response]) error {
		if err := nc.SendFrame(appendRequest(nc.BeginFrame(), req)); err != nil {
			return fmt.Errorf("cluster: send: %w", err)
		}
		p, err := nc.ReadFrame()
		if errors.Is(err, io.EOF) {
			return errors.New("cluster: node closed connection")
		} else if err != nil {
			return fmt.Errorf("cluster: receive: %w", err)
		}
		resp := &nc.State
		if err := resp.decode(p); err != nil {
			return fmt.Errorf("cluster: malformed reply to a %s request: %w", req.Op, err)
		}
		if kind, msg = resp.Kind, resp.Err; kind == req.Op && use != nil {
			use(resp)
		}
		return nil
	})
	switch {
	case err != nil || kind == req.Op:
		return err
	case kind == opError:
		return fmt.Errorf("cluster: node error: %s", msg)
	case kind == opStale:
		return errStale
	default:
		return fmt.Errorf("cluster: node answered a %s request with a %s frame", req.Op, kind)
	}
}

// close tears down every pooled connection, including those serving
// in-flight calls — their I/O fails promptly instead of wedging.
func (c *client) close() error { return c.pool.Close() }
