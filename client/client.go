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
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"geodabs"
	"geodabs/internal/core"
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

// dialTimeout bounds a dial whose context has no deadline of its own.
const dialTimeout = 5 * time.Second

// Client is a pooled geodabsd client, safe for concurrent use. One
// request is in flight per connection; concurrent calls each check out
// their own connection (dialing on demand) and return it when done.
type Client struct {
	addr       string
	poolSize   int
	maxRetries int

	pool   *wire.Pool[wire.Response] // each connection decodes its replies into its own Response
	nextID atomic.Uint64             // request IDs, informational (one request per conn)
}

// Dial connects to a geodabsd at addr. The returned client pools
// connections lazily: nothing is dialed until the first call.
func Dial(addr string, opts ...Option) (*Client, error) {
	if addr == "" {
		return nil, errors.New("client: empty address")
	}
	c := &Client{
		addr:       addr,
		poolSize:   4,
		maxRetries: 2,
	}
	for _, opt := range opts {
		opt(c)
	}
	c.pool = wire.NewPool[wire.Response](c.poolSize, wire.MaxFrame, ErrClosed, func(ctx context.Context) (net.Conn, error) {
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, dialTimeout)
			defer cancel()
		}
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("client: dial %s: %w", addr, err)
		}
		return conn, nil
	})
	return c, nil
}

// Close closes every pooled connection. In-flight calls fail with their
// connections; Close is idempotent.
func (c *Client) Close() error { return c.pool.Close() }

// retainHits bounds the hit storage a connection keeps for its next
// reply: the storage of a wider reply is dropped once used, as the
// connection drops a frame buffer grown for one wide frame.
const retainHits = 4096

// roundTrip performs one request/response exchange on a pooled
// connection, handing an OK reply to use (which may be nil) before it
// returns: the reply is the connection's own, reused by its next
// exchange. A non-OK reply is its status error. Transport failures are
// transportErrors, and like any failure of the exchange they discard the
// connection; a cancelled ctx aborts the exchange promptly
// (wire.Pool.Call).
func (c *Client) roundTrip(ctx context.Context, req *wire.Request, use func(*wire.Response)) error {
	// The remaining deadline budget rides the request so the server's
	// engine call is cancelled in step with the caller.
	dl, ok := ctx.Deadline()
	if ok {
		ms := time.Until(dl).Milliseconds()
		if ms <= 0 {
			return context.DeadlineExceeded
		}
		req.DeadlineMS = uint64(ms)
		// Slack past the ctx deadline: expiry is delivered by the pool's
		// poke, which runs after ctx.Done — so the failed read reports the
		// context error, not a bare transport timeout. The connection
		// deadline is only a backstop against a missed poke and must not
		// fire first.
		dl = dl.Add(250 * time.Millisecond)
	}
	var status error
	err := c.pool.Call(ctx, func(nc *wire.PoolConn[wire.Response]) error {
		frame, err := wire.EndFrame(wire.AppendRequest(nc.BeginFrame(), req), 0, wire.MaxFrame)
		if err != nil {
			return err
		}
		nc.NetConn().SetDeadline(dl)
		err = nc.WriteFrames(frame)
		var payload []byte
		if err == nil {
			payload, err = nc.ReadFrame()
		}
		if err != nil {
			return &transportError{err: fmt.Errorf("client: %s: %w", c.addr, err)}
		}
		resp := &nc.State
		if err = wire.DecodeResponseInto(resp, payload); err != nil {
			return fmt.Errorf("client: %s: %w", c.addr, err)
		}
		if resp.ID != req.ID {
			return fmt.Errorf("client: %s: response id %d for request %d", c.addr, resp.ID, req.ID)
		}
		// A refusal is a well-formed reply: the connection stays in step.
		if status = statusErr(resp); status == nil && use != nil {
			use(resp)
		}
		if cap(resp.Hits) > retainHits {
			resp.Hits = nil
		}
		return nil
	})
	return cmp.Or(err, status)
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
// while ctx allows. use sees the OK reply, as in roundTrip.
func (c *Client) do(ctx context.Context, req *wire.Request, idempotent bool, use func(*wire.Response)) error {
	req.ID = c.nextID.Add(1)
	for attempt := 0; ; attempt++ {
		err := c.roundTrip(ctx, req, use)
		if err == nil || !idempotent || attempt >= c.maxRetries || !retryable(err) {
			return err
		}
		select {
		case <-time.After(time.Duration(attempt+1) * retryBaseDelay):
		case <-ctx.Done():
			return err
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

// WithKNN asks for the k nearest neighbors, like geodabs.WithKNN; 0
// means no cap.
func WithKNN(k int) SearchOption {
	return func(r *wire.Request) { r.KNN = k }
}

// Metric names an exact rerank metric the server can evaluate: the two
// geodabs.WithExactRerank takes.
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
	return c.do(ctx, &wire.Request{Op: wire.OpPing}, true, nil)
}

// SearchFingerprint searches with a locally winnowed fingerprint — the
// thin-client path: only the term set crosses the wire. The server runs
// no fingerprint extraction: it takes the shipped terms, as decoded, as
// the term set of a fresh fingerprint-only query
// (geodabs.QueryFromFingerprint) and, on a cluster engine, plans that
// query's routing to the shard nodes for this request alone — nothing is
// cached between requests. The fingerprint must come from a Fingerprinter
// configured identically to the server's engine.
func (c *Client) SearchFingerprint(ctx context.Context, fp *geodabs.Fingerprint, opts ...SearchOption) (*Result, error) {
	if fp == nil || core.TermsOf(fp.Set) == nil {
		return nil, errors.New("client: nil fingerprint")
	}
	req := searchRequest(wire.OpSearchFP, opts)
	if req.Metric != 0 {
		return nil, errors.New("client: WithExactRerank needs the query's raw points, which a fingerprint-only search does not carry — use Search instead")
	}
	req.Terms = core.TermsOf(fp.Set)
	return c.search(ctx, req)
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
	return c.search(ctx, req)
}

// search runs a search request, building its Result from the reply.
func (c *Client) search(ctx context.Context, req *wire.Request) (*Result, error) {
	var res *Result
	if err := c.do(ctx, req, true, func(resp *wire.Response) { res = searchResult(resp) }); err != nil {
		return nil, err
	}
	return res, nil
}

// Upsert indexes the trajectory remotely, replacing any previously
// indexed trajectory with the same ID. Not retried: re-run on failure
// (the operation is idempotent server-side, the choice to retry is the
// caller's).
func (c *Client) Upsert(ctx context.Context, t *geodabs.Trajectory) error {
	if t == nil {
		return errors.New("client: nil trajectory")
	}
	return c.do(ctx, &wire.Request{Op: wire.OpUpsert, TrajID: uint32(t.ID), Points: t.Points}, false, nil)
}

// Delete removes a trajectory remotely, returning ErrNotFound
// (= geodabs.ErrNotFound) when the ID is not indexed.
func (c *Client) Delete(ctx context.Context, id geodabs.ID) error {
	return c.do(ctx, &wire.Request{Op: wire.OpDelete, TrajID: uint32(id)}, false, nil)
}
