// Package client is the Go client for geodabsd, the geodabs network
// service. It speaks the compact length-prefixed binary protocol of
// geodabs/internal/wire (specified in docs/protocol.md) over pooled TCP
// connections.
//
// The client is built for the thin-client split the fingerprint design
// enables: an edge client winnows its trajectory locally (with
// geodabs.NewFingerprinter) and ships only the fingerprint's term set —
// a few bytes per geodab — never raw GPS points:
//
//	f, _ := geodabs.NewFingerprinter(cfg)
//	cl, _ := client.Dial("10.0.0.7:7071")
//	defer cl.Close()
//	res, err := cl.SearchFingerprint(ctx, f.Fingerprint(points),
//	    client.WithMaxDistance(0.4), client.WithKNN(10))
//
// Raw-trajectory search (Search) and mutations (Upsert, Delete) are
// available for trusted clients that prefer server-side winnowing.
//
// Deadlines ride the request: the remaining budget of ctx is sent to the
// server, which propagates it into its engine call, so a client timeout
// cancels work all the way down to the cluster's shard nodes instead of
// merely abandoning the reply. Idempotent reads (Ping and both
// searches) are retried on transport failures and OVERLOADED replies
// while deadline budget remains; mutations are never retried.
package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"geodabs"
	"geodabs/internal/wire"
)

// Sentinel errors mapping geodabsd's explicit refusal replies. Test with
// errors.Is; ErrNotFound is the public geodabs sentinel, so remote and
// local engines fail the same way.
var (
	// ErrOverloaded reports an OVERLOADED reply: admission control shed
	// the request without executing it. Safe to retry after backoff
	// (reads do so automatically).
	ErrOverloaded = errors.New("client: server overloaded")
	// ErrShuttingDown reports a SHUTTING_DOWN reply: the server is
	// draining and refused the request. Retry against another replica.
	ErrShuttingDown = errors.New("client: server shutting down")
	// ErrClosed reports a call on a closed Client.
	ErrClosed = errors.New("client: closed")
	// ErrNotFound aliases geodabs.ErrNotFound for remote deletes of
	// unknown IDs.
	ErrNotFound = geodabs.ErrNotFound
)

// Option configures a Client at Dial.
type Option func(*Client)

// WithPoolSize bounds the idle connection pool (default 4). The client
// dials beyond the pool under load; surplus connections are closed on
// check-in rather than pooled.
func WithPoolSize(n int) Option {
	return func(c *Client) {
		if n > 0 {
			c.poolSize = n
		}
	}
}

// WithDialTimeout bounds each dial (default 5s).
func WithDialTimeout(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.dialTimeout = d
		}
	}
}

// WithMaxRetries sets how many times an idempotent read is retried after
// a transport failure or an OVERLOADED reply (default 2, 0 disables).
// Mutations are never retried.
func WithMaxRetries(n int) Option {
	return func(c *Client) {
		if n >= 0 {
			c.maxRetries = n
		}
	}
}

// Client is a pooled geodabsd client, safe for concurrent use. One
// request is in flight per connection; concurrent calls each check out
// their own connection (dialing on demand) and return it when done.
type Client struct {
	addr        string
	poolSize    int
	dialTimeout time.Duration
	maxRetries  int

	mu     sync.Mutex
	idle   []*wire.Conn
	active map[*wire.Conn]struct{}
	closed bool

	nextID uint64 // request IDs, informational (one request per conn)
}

// Dial connects to a geodabsd at addr. The returned client pools
// connections lazily: nothing is dialed until the first call.
func Dial(addr string, opts ...Option) (*Client, error) {
	if addr == "" {
		return nil, errors.New("client: empty address")
	}
	c := &Client{
		addr:        addr,
		poolSize:    4,
		dialTimeout: 5 * time.Second,
		maxRetries:  2,
		active:      make(map[*wire.Conn]struct{}),
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// Close closes every pooled connection. In-flight calls fail with their
// connections; Close is idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := append([]*wire.Conn(nil), c.idle...)
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

// checkout hands the caller a connection: an idle one when available, a
// fresh dial otherwise.
func (c *Client) checkout(ctx context.Context) (*wire.Conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if n := len(c.idle); n > 0 {
		nc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.active[nc] = struct{}{}
		c.mu.Unlock()
		return nc, nil
	}
	c.mu.Unlock()

	dctx := ctx
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, c.dialTimeout)
		defer cancel()
	}
	var d net.Dialer
	raw, err := d.DialContext(dctx, "tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", c.addr, err)
	}
	nc := wire.NewConn(raw, wire.MaxFrame)
	c.mu.Lock()
	if c.closed { // closed while dialing
		c.mu.Unlock()
		raw.Close()
		return nil, ErrClosed
	}
	c.active[nc] = struct{}{}
	c.mu.Unlock()
	return nc, nil
}

// checkin returns a healthy connection to the idle pool, closing it when
// the pool is full or the client closed.
func (c *Client) checkin(nc *wire.Conn) {
	c.mu.Lock()
	delete(c.active, nc)
	if c.closed || len(c.idle) >= c.poolSize {
		c.mu.Unlock()
		nc.NetConn().Close()
		return
	}
	c.idle = append(c.idle, nc)
	c.mu.Unlock()
}

// discard drops a connection whose stream may be desynchronized; the
// next call dials afresh.
func (c *Client) discard(nc *wire.Conn) {
	nc.NetConn().Close()
	c.mu.Lock()
	delete(c.active, nc)
	c.mu.Unlock()
}

// roundTrip performs one request/response exchange on a checked-out
// connection. A cancelled ctx pokes the connection deadline so blocked
// I/O aborts promptly; transport failures poison the connection.
func (c *Client) roundTrip(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The remaining deadline budget rides the request so the server's
	// engine call is cancelled in step with the caller.
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms <= 0 {
			return nil, context.DeadlineExceeded
		}
		req.DeadlineMS = uint64(ms)
	}
	nc, err := c.checkout(ctx)
	if err != nil {
		return nil, err
	}
	frame, err := wire.EndFrame(wire.AppendRequest(nc.BeginFrame(), req), 0, wire.MaxFrame)
	if err != nil {
		c.checkin(nc)
		return nil, err
	}

	if dl, ok := ctx.Deadline(); ok {
		// Slack past the ctx deadline: expiry is delivered by the poke
		// below, which runs after ctx.Done — so the failed read reports
		// the context error, not a bare transport timeout. The connection
		// deadline is only a backstop against a missed poke and must not
		// fire first.
		nc.NetConn().SetDeadline(dl.Add(250 * time.Millisecond))
	} else {
		nc.NetConn().SetDeadline(time.Time{})
	}
	// Cancellation pokes the deadline into the past, unblocking the
	// pending write or read with a timeout error.
	stop := context.AfterFunc(ctx, func() { nc.NetConn().SetDeadline(time.Now()) })
	err = nc.WriteFrames(frame)
	var payload []byte
	if err == nil {
		payload, err = nc.ReadFrame()
	}
	// A stop that finds the poke started cannot tell whether it has landed
	// yet: such a connection never goes back to the pool, so a stale
	// deadline can never fail a later call — callers routinely cancel the
	// ctx the moment their call returns.
	poked := !stop()
	if err != nil {
		c.discard(nc)
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, &transportError{err: fmt.Errorf("client: %s: %w", c.addr, err)}
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		c.discard(nc)
		return nil, fmt.Errorf("client: %s: %w", c.addr, err)
	}
	if resp.ID != req.ID {
		c.discard(nc)
		return nil, fmt.Errorf("client: %s: response id %d for request %d", c.addr, resp.ID, req.ID)
	}
	if poked {
		c.discard(nc)
	} else {
		c.checkin(nc)
	}
	return resp, nil
}

// transportError marks failures of the connection itself — the request
// may never have reached the server, so idempotent reads retry them.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// retryable reports errors an idempotent read may retry: transport
// failures and explicit OVERLOADED sheds.
func retryable(err error) bool {
	var te *transportError
	return errors.As(err, &te) || errors.Is(err, ErrOverloaded)
}

// retryBaseDelay spaces read retries; attempt n waits n× this (capped by
// the deadline budget).
const retryBaseDelay = 25 * time.Millisecond

// do runs one exchange, retrying idempotent reads on retryable errors
// while ctx allows.
func (c *Client) do(ctx context.Context, req *wire.Request, idempotent bool) (*wire.Response, error) {
	c.mu.Lock()
	c.nextID++
	req.ID = c.nextID
	c.mu.Unlock()

	var lastErr error
	for attempt := 0; ; attempt++ {
		resp, err := c.roundTrip(ctx, req)
		if err == nil {
			if err = statusErr(resp); err == nil {
				return resp, nil
			}
		}
		lastErr = err
		if !idempotent || attempt >= c.maxRetries || !retryable(err) {
			return nil, lastErr
		}
		select {
		case <-time.After(time.Duration(attempt+1) * retryBaseDelay):
		case <-ctx.Done():
			return nil, lastErr
		}
	}
}

// statusErr maps a non-OK reply onto the client's error surface.
func statusErr(resp *wire.Response) error {
	switch resp.Status {
	case wire.StatusOK:
		return nil
	case wire.StatusOverloaded:
		return ErrOverloaded
	case wire.StatusShuttingDown:
		return ErrShuttingDown
	case wire.StatusNotFound:
		return ErrNotFound
	case wire.StatusDeadlineExceeded:
		return context.DeadlineExceeded
	case wire.StatusBadRequest:
		return fmt.Errorf("client: bad request: %s", resp.Message)
	default:
		return fmt.Errorf("client: server error: %s", resp.Message)
	}
}

// SearchOption configures one remote search.
type SearchOption func(*wire.Request)

// WithMaxDistance keeps only hits within Jaccard distance d, like
// geodabs.WithMaxDistance.
func WithMaxDistance(d float64) SearchOption {
	return func(r *wire.Request) { r.MaxDistance = d }
}

// WithLimit truncates the ranking to its top n, like geodabs.WithLimit.
func WithLimit(n int) SearchOption {
	return func(r *wire.Request) { r.Limit = n }
}

// WithKNN asks for the k nearest neighbors, like geodabs.WithKNN.
// Mutually exclusive with WithLimit.
func WithKNN(k int) SearchOption {
	return func(r *wire.Request) { r.KNN = k }
}

// Metric names a built-in exact rerank metric the server can evaluate.
// Only built-ins are addressable over the wire: a custom function
// cannot cross a process boundary.
type Metric uint8

const (
	// DTW selects dynamic time warping; DFD the discrete Fréchet
	// distance. Both are in meters, matching geodabs.DTW and geodabs.DFD.
	DTW Metric = Metric(wire.MetricDTW)
	DFD Metric = Metric(wire.MetricDFD)
)

// WithExactRerank asks the server to refine the fingerprint ranking
// with the named exact metric, like geodabs.WithExactRerank — the
// server's engine must retain points (and on a cluster the scoring runs
// on the shard nodes owning them; raw candidate points never move).
// Applies to Search only: a fingerprint-only search carries no raw
// query points to score, so SearchFingerprint rejects it, matching the
// local engine's behavior.
func WithExactRerank(m Metric) SearchOption {
	return func(r *wire.Request) { r.Metric = uint8(m) }
}

// Stats reports a remote search's execution statistics, the wire view of
// geodabs.SearchStats (Elapsed is the server-side engine time).
type Stats struct {
	Candidates   int
	Pruned       int
	NodePruned   int
	WirePartials int
	Shards       int
	Nodes        int
	Elapsed      time.Duration
}

// Result is a remote search's outcome: ranked hits plus statistics.
type Result struct {
	Hits  []geodabs.Result
	Stats Stats
}

func searchRequest(op wire.Op, opts []SearchOption) *wire.Request {
	req := &wire.Request{Op: op, MaxDistance: 1}
	for _, opt := range opts {
		opt(req)
	}
	return req
}

func searchResult(resp *wire.Response) *Result {
	hits := make([]geodabs.Result, len(resp.Hits))
	for i, h := range resp.Hits {
		hits[i] = geodabs.Result{ID: geodabs.ID(h.ID), Distance: h.Distance, Shared: int(h.Shared)}
	}
	st := resp.Stats
	return &Result{
		Hits: hits,
		Stats: Stats{
			Candidates:   int(st.Candidates),
			Pruned:       int(st.Pruned),
			NodePruned:   int(st.NodePruned),
			WirePartials: int(st.WirePartials),
			Shards:       int(st.Shards),
			Nodes:        int(st.Nodes),
			Elapsed:      time.Duration(st.ElapsedUS) * time.Microsecond,
		},
	}
}

// Ping round-trips a no-op request, verifying the server is reachable
// and admitting traffic.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.do(ctx, &wire.Request{Op: wire.OpPing}, true)
	return err
}

// SearchFingerprint searches with a locally winnowed fingerprint — the
// thin-client path: only the term set crosses the wire, and the server
// search starts straight from the prepared-query plan cache. The
// fingerprint must come from a Fingerprinter configured identically to
// the server's engine.
func (c *Client) SearchFingerprint(ctx context.Context, fp *geodabs.Fingerprint, opts ...SearchOption) (*Result, error) {
	if fp == nil || fp.Set == nil {
		return nil, errors.New("client: nil fingerprint")
	}
	req := searchRequest(wire.OpSearchFP, opts)
	if req.Metric != 0 {
		return nil, errors.New("client: WithExactRerank needs the query's raw points, which a fingerprint-only search does not carry — use Search instead")
	}
	req.Terms = fp.Set.ToSlice()
	resp, err := c.do(ctx, req, true)
	if err != nil {
		return nil, err
	}
	return searchResult(resp), nil
}

// Search ships raw trajectory points for server-side winnowing. Prefer
// SearchFingerprint where the client can run the geodab pipeline — it
// sends less and reveals less.
func (c *Client) Search(ctx context.Context, points []geodabs.Point, opts ...SearchOption) (*Result, error) {
	req := searchRequest(wire.OpSearch, opts)
	if req.Metric != 0 {
		req.Op = wire.OpSearchRerank
	}
	req.Points = points
	resp, err := c.do(ctx, req, true)
	if err != nil {
		return nil, err
	}
	return searchResult(resp), nil
}

// Upsert indexes the trajectory remotely, replacing any previously
// indexed trajectory with the same ID. Not retried: re-run on failure
// (the operation is idempotent server-side, the choice to retry is the
// caller's).
func (c *Client) Upsert(ctx context.Context, t *geodabs.Trajectory) error {
	if t == nil {
		return errors.New("client: nil trajectory")
	}
	req := &wire.Request{Op: wire.OpUpsert, TrajID: uint32(t.ID), Points: t.Points}
	_, err := c.do(ctx, req, false)
	return err
}

// Delete removes a trajectory remotely, returning ErrNotFound
// (= geodabs.ErrNotFound) when the ID is not indexed.
func (c *Client) Delete(ctx context.Context, id geodabs.ID) error {
	_, err := c.do(ctx, &wire.Request{Op: wire.OpDelete, TrajID: uint32(id)}, false)
	return err
}
