// Package server implements geodabsd's serving layer: a TCP front-end
// exposing a geodabs engine (a local *Index snapshot or a distributed
// *Cluster) to external clients over the compact length-prefixed binary
// protocol of geodabs/internal/wire (specified in docs/protocol.md).
//
// The layer is production-shaped:
//
//   - One read loop per connection, with bounded request pipelining: a
//     connection may have at most Config.MaxPipeline requests whose
//     replies are not yet written; beyond that the server stops reading
//     the socket, pushing backpressure into the client's TCP window
//     instead of buffering unboundedly. A request alone on its
//     connection executes on the read loop's goroutine; one pipelined
//     behind others executes on its own. Replies are encoded into the
//     connection's pending buffer, and whichever goroutine finds no
//     write in progress writes everything queued in one write — there is
//     no writer goroutine.
//   - Admission control: at most Config.MaxInFlight requests execute at
//     once, with a bounded wait queue of Config.MaxQueue behind them.
//     A request arriving with the queue full is refused immediately with
//     an explicit OVERLOADED reply — the request is never executed and
//     no goroutine is started for it, so sustained overload sheds load
//     at wire speed instead of growing goroutines without bound. An
//     executed request gives its slot back before its reply is queued,
//     so a client that stops reading holds only its own pipeline, never
//     a slot other clients need.
//   - Per-request deadlines: the client's remaining budget rides the
//     request header and becomes the context deadline of the engine
//     call, so a deadline reaches all the way into a cluster
//     scatter-gather (whose node RPCs abort promptly on cancellation).
//     Config.MaxDeadline caps what a client may ask for and
//     Config.DefaultDeadline bounds requests that ask for nothing.
//   - Prometheus-style metrics: request counters by op and status,
//     shed/drain counters, in-flight and queue gauges, per-op latency
//     histograms — see Metrics.Handler.
//   - Graceful drain: Shutdown stops accepting connections, refuses new
//     requests with SHUTTING_DOWN, lets in-flight requests finish up to
//     the caller's deadline, then closes every connection.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"geodabs"
	"geodabs/internal/core"
	"geodabs/internal/wire"
)

// Engine is the indexing engine the server fronts: the union of the
// public Searcher and Mutator surfaces, satisfied by both *geodabs.Index
// and *geodabs.Cluster.
type Engine interface {
	geodabs.Searcher
	geodabs.Mutator
}

// Config shapes the serving layer. The zero value is usable: every limit
// falls back to the default documented on its field.
type Config struct {
	// MaxInFlight bounds concurrently executing requests across all
	// connections (default 128).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot (default
	// MaxInFlight). A request arriving when the queue is full is shed
	// with StatusOverloaded.
	MaxQueue int
	// MaxPipeline bounds a single connection's outstanding requests
	// (default 32). When reached, the server stops reading that
	// connection until a reply has been written.
	MaxPipeline int
	// MaxConns bounds open client connections (default 1024). A
	// connection beyond the limit receives one OVERLOADED reply and is
	// closed.
	MaxConns int
	// DefaultDeadline applies to requests that carry no deadline
	// (default 0: no server-imposed deadline).
	DefaultDeadline time.Duration
	// MaxDeadline caps the deadline a client may request (default 0: no
	// cap).
	MaxDeadline time.Duration
	// ErrorLog receives connection-level errors; nil discards them.
	ErrorLog *log.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 128
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = c.MaxInFlight
	}
	if c.MaxPipeline <= 0 {
		c.MaxPipeline = 32
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 1024
	}
	return c
}

// Server is a running geodabsd front-end. Create one with Listen or
// Serve; stop it with Shutdown (graceful) or Close (immediate).
type Server struct {
	engine  Engine
	cfg     Config
	ln      net.Listener
	metrics *Metrics

	inFlight chan struct{} // capacity MaxInFlight: executing requests
	queue    chan struct{} // capacity MaxQueue: requests awaiting a slot

	draining  chan struct{} // closed when Shutdown begins
	connWG    sync.WaitGroup
	closeOnce sync.Once

	// drainMu pairs reqWG.Add with Shutdown's drain transition: a
	// WaitGroup forbids an Add concurrent with a Wait that starts at
	// zero, so admission registers requests under the lock and Shutdown
	// flips drainStarted under it before waiting.
	drainMu      sync.Mutex
	drainStarted bool
	reqWG        sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// Listen starts a server on addr (e.g. "127.0.0.1:7071").
func Listen(addr string, engine Engine, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen: %w", err)
	}
	return Serve(ln, engine, cfg), nil
}

// Serve starts a server on an existing listener, taking ownership of it.
func Serve(ln net.Listener, engine Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		engine:   engine,
		cfg:      cfg,
		ln:       ln,
		metrics:  &Metrics{},
		inFlight: make(chan struct{}, cfg.MaxInFlight),
		queue:    make(chan struct{}, cfg.MaxQueue),
		draining: make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
	}
	s.connWG.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Metrics returns the server's metrics registry, for mounting
// Metrics.Handler and for tests and benchmarks to read counters.
func (s *Server) Metrics() *Metrics { return s.metrics }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.ErrorLog != nil {
		s.cfg.ErrorLog.Printf(format, args...)
	}
}

// acceptLoop admits each accepted connection or refuses it, until the
// server drains.
func (s *Server) acceptLoop() {
	defer s.connWG.Done()
	wire.AcceptLoop(s.ln, s.draining, func(conn net.Conn) {
		if !s.register(conn) {
			// Over the connection limit (or draining): one explicit
			// refusal, then close — never a silent hang.
			s.metrics.connsRejected.Add(1)
			s.refuseConn(conn)
			return
		}
		s.metrics.connsOpened.Add(1)
		s.metrics.connsActive.Add(1)
		s.connWG.Add(1)
		go s.serveConn(conn)
	})
}

// register tracks a connection for shutdown teardown, refusing it when
// the server is at its connection limit or closing.
func (s *Server) register(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || len(s.conns) >= s.cfg.MaxConns {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) unregister(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// refuseConn writes a single OVERLOADED (or SHUTTING_DOWN) frame and
// closes the connection.
func (s *Server) refuseConn(conn net.Conn) {
	status := wire.StatusOverloaded
	select {
	case <-s.draining:
		status = wire.StatusShuttingDown
	default:
	}
	payload := wire.AppendResponse(nil, &wire.Response{Status: status})
	frame, err := wire.AppendFrame(nil, payload)
	if err == nil {
		conn.SetWriteDeadline(time.Now().Add(time.Second))
		conn.Write(frame)
	}
	conn.Close()
}

// conn is one client connection: the framed socket its read loop reads
// requests from, and the reply frames queued for it.
type conn struct {
	s *Server
	f *wire.Conn
	// pipeline holds a token per request read whose reply has not yet
	// been written: at MaxPipeline of them the read loop stops reading.
	pipeline chan struct{}
	// running counts this connection's requests executing on their own
	// goroutines, and reqs waits for those goroutines.
	running atomic.Int32
	reqs    sync.WaitGroup

	mu      sync.Mutex
	pending []byte // reply frames queued since the last write began
	replies int    // frames in pending, each holding a pipeline token
	writing bool   // a writer is flushing; replies queued meanwhile ride its next write
}

// serveConn runs one connection's read loop until EOF, a protocol
// violation, or server close, then waits for its requests' replies.
func (s *Server) serveConn(nc net.Conn) {
	defer s.connWG.Done()
	defer s.metrics.connsActive.Add(-1)
	defer s.unregister(nc)
	defer nc.Close()
	c := &conn{s: s, f: wire.NewConn(nc, wire.MaxFrame), pipeline: make(chan struct{}, s.cfg.MaxPipeline)}
	defer c.reqs.Wait()
	for {
		payload, err := c.f.ReadFrame()
		if err != nil {
			if !errors.Is(err, io.EOF) && !isClosedConn(err) {
				s.metrics.badFrame.Add(1)
				s.logf("server: %s: read: %v", nc.RemoteAddr(), err)
			}
			return
		}
		// Bounded pipelining: block the read loop until the connection has
		// a free slot. A reply releases its slot once it is written, so a
		// client that stops reading stops the server reading it.
		c.pipeline <- struct{}{}
		req, err := wire.DecodeRequest(payload)
		if err != nil {
			// The frame parsed but the payload didn't: answer, then drop
			// the connection — a client this confused cannot be trusted
			// to stay in sync.
			s.metrics.badFrame.Add(1)
			c.reply(&wire.Response{Status: wire.StatusBadRequest, Message: err.Error()})
			return
		}
		c.admit(req)
	}
}

// admit runs admission control for one decoded request: execute, queue
// within bounds, or refuse with an explicit status. Either way exactly
// one reply is queued for it.
func (c *conn) admit(req *wire.Request) {
	s := c.s
	refuse := func(status wire.Status) {
		s.metrics.observe(req.Op, status, 0)
		c.reply(&wire.Response{ID: req.ID, Status: status})
	}
	select {
	case <-s.draining:
		s.metrics.draining.Add(1)
		refuse(wire.StatusShuttingDown)
		return
	default:
	}
	select {
	case s.inFlight <- struct{}{}: // fast path: a slot is free
	default:
		// Contended: wait in the bounded queue, shed when it is full.
		select {
		case s.queue <- struct{}{}:
			s.metrics.queued.Add(1)
			admitted := s.waitQueued(req)
			s.metrics.queued.Add(-1)
			<-s.queue
			if admitted != wire.StatusOK {
				if admitted == wire.StatusShuttingDown {
					s.metrics.draining.Add(1)
				}
				refuse(admitted)
				return
			}
		default:
			s.metrics.shed.Add(1)
			refuse(wire.StatusOverloaded)
			return
		}
	}
	// Admitted. Registration can still lose the race with a drain that
	// began after the check above; the slot is handed back and the
	// request refused like any other drain-time arrival.
	if !s.beginRequest() {
		<-s.inFlight
		s.metrics.draining.Add(1)
		refuse(wire.StatusShuttingDown)
		return
	}
	s.metrics.inFlight.Add(1)
	// A request alone on its connection runs on the read goroutine: there
	// is nothing to read until its reply is out. When another request of
	// the connection is executing, or the client has already sent more,
	// it runs on its own goroutine so the read loop keeps decoding
	// (pipelining). Goroutines are bounded by MaxInFlight — the slot was
	// acquired above.
	if c.running.Load() == 0 && c.f.Buffered() == 0 {
		c.run(req)
		return
	}
	c.running.Add(1)
	c.reqs.Add(1)
	go func() {
		defer c.reqs.Done()
		defer c.running.Add(-1)
		c.run(req)
	}()
}

// run executes one admitted request, releases its execution slot, and
// queues its reply: a reply the client is slow to read holds only the
// connection's pipeline slot, never an execution slot other clients
// need.
func (c *conn) run(req *wire.Request) {
	s := c.s
	// The reply is encoded before run returns, so a search's hits are
	// built in run's frame: up to len(hits) of them cost no allocation.
	var hits [32]wire.Hit
	resp := s.execute(req, hits[:0])
	s.metrics.inFlight.Add(-1)
	<-s.inFlight
	s.reqWG.Done()
	c.reply(&resp)
}

// reply queues resp's frame, encoded in place behind the frames already
// pending. Unless a write is in progress, the caller then becomes the
// writer: it writes everything queued in one write, without holding the
// lock, and again for whatever was queued meanwhile, releasing each
// written frame's pipeline slot.
func (c *conn) reply(resp *wire.Response) {
	c.mu.Lock()
	c.pending = appendReply(c.pending, resp)
	c.replies++
	if c.writing {
		c.mu.Unlock()
		return
	}
	c.writing = true
	for len(c.pending) > 0 {
		// The connection's write buffer holds the storage of the last
		// write, idle until now: the next replies queue into it.
		buf, n := c.pending, c.replies
		c.pending, c.replies = c.f.Buffer(), 0
		c.mu.Unlock()
		// A failed write drops the batch: the connection is dead, and its
		// read loop sees the same failure and unwinds.
		_ = c.f.WriteFrames(buf)
		for ; n > 0; n-- {
			<-c.pipeline
		}
		c.mu.Lock()
	}
	c.writing = false
	c.mu.Unlock()
}

// appendReply frames and encodes resp onto dst.
func appendReply(dst []byte, resp *wire.Response) []byte {
	start := len(dst)
	b, err := wire.EndFrame(wire.AppendResponse(wire.BeginFrame(dst), resp), start, wire.MaxFrame)
	if err != nil {
		// A response can only exceed MaxFrame on a pathological hit
		// count; truncate to an error reply rather than desync.
		b, _ = wire.EndFrame(wire.AppendResponse(wire.BeginFrame(b), &wire.Response{
			ID: resp.ID, Status: wire.StatusError, Message: "response exceeds frame limit",
		}), start, wire.MaxFrame)
	}
	return b
}

// beginRequest registers one request with the drain waiter, failing when
// the drain already began. See drainMu.
func (s *Server) beginRequest() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.drainStarted {
		return false
	}
	s.reqWG.Add(1)
	return true
}

// waitQueued blocks a queued request until an execution slot frees,
// its deadline expires, or the server starts draining.
func (s *Server) waitQueued(req *wire.Request) wire.Status {
	var timeout <-chan time.Time
	if d := s.deadlineOf(req); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case s.inFlight <- struct{}{}:
		return wire.StatusOK
	case <-timeout:
		return wire.StatusDeadlineExceeded
	case <-s.draining:
		return wire.StatusShuttingDown
	}
}

// deadlineOf resolves a request's effective deadline from its header and
// the server's default and cap; 0 means none.
func (s *Server) deadlineOf(req *wire.Request) time.Duration {
	d := time.Duration(req.DeadlineMS) * time.Millisecond
	if d == 0 {
		d = s.cfg.DefaultDeadline
	}
	if s.cfg.MaxDeadline > 0 && (d == 0 || d > s.cfg.MaxDeadline) {
		d = s.cfg.MaxDeadline
	}
	return d
}

// execute runs one admitted request against the engine. A search appends
// its hits to hits.
func (s *Server) execute(req *wire.Request, hits []wire.Hit) wire.Response {
	start := time.Now()
	ctx := context.Background()
	if d := s.deadlineOf(req); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	resp := s.handle(ctx, req, hits)
	resp.ID = req.ID
	s.metrics.observe(req.Op, resp.Status, time.Since(start))
	return resp
}

// handle dispatches one request to the engine, mapping errors onto wire
// statuses.
func (s *Server) handle(ctx context.Context, req *wire.Request, hits []wire.Hit) wire.Response {
	// Points travel on OpSearch, OpSearchRerank and OpUpsert. A NaN or
	// infinite coordinate would reach the engine unchecked and make every
	// exact distance against it NaN, which breaks the distance-then-ID
	// order of a reranked result, now or after an upsert stores it.
	for i, p := range req.Points {
		if math.IsNaN(p.Lat) || math.IsNaN(p.Lon) || math.IsInf(p.Lat, 0) || math.IsInf(p.Lon, 0) {
			return wire.Response{Status: wire.StatusBadRequest, Message: fmt.Sprintf("point %d (%v, %v) is not finite", i, p.Lat, p.Lon)}
		}
	}
	switch req.Op {
	case wire.OpPing:
		return wire.Response{Status: wire.StatusOK}
	case wire.OpSearchFP:
		// DecodeRequest admits only strictly ascending term lists.
		fp := geodabs.Fingerprint{Set: core.SetOf(req.Terms)}
		return s.search(ctx, req, geodabs.QueryFromFingerprint(&fp), hits)
	case wire.OpSearch:
		return s.search(ctx, req, geodabs.NewQuery(req.Points), hits)
	case wire.OpSearchRerank:
		metric := rerankMetricOf(req.Metric)
		if metric == nil {
			return wire.Response{Status: wire.StatusBadRequest, Message: fmt.Sprintf("unknown rerank metric %d", req.Metric)}
		}
		return s.search(ctx, req, geodabs.NewQuery(req.Points), hits, geodabs.WithExactRerank(metric))
	case wire.OpUpsert:
		t := &geodabs.Trajectory{ID: geodabs.ID(req.TrajID), Points: req.Points}
		if err := s.engine.Upsert(ctx, t); err != nil {
			return errResponse(err)
		}
		return wire.Response{Status: wire.StatusOK}
	case wire.OpDelete:
		if err := s.engine.Delete(ctx, geodabs.ID(req.TrajID)); err != nil {
			return errResponse(err)
		}
		return wire.Response{Status: wire.StatusOK}
	default:
		return wire.Response{Status: wire.StatusBadRequest, Message: fmt.Sprintf("unknown op %d", req.Op)}
	}
}

// search validates the request's parameters, runs the engine search, and
// appends the ranked hits to hits for the reply. extra carries
// op-specific options (the exact rerank of OpSearchRerank) on top of the
// common wire parameters.
func (s *Server) search(ctx context.Context, req *wire.Request, q *geodabs.Query, hits []wire.Hit, extra ...geodabs.SearchOption) wire.Response {
	opts, err := searchOptions(req, extra...)
	if err != nil {
		return wire.Response{Status: wire.StatusBadRequest, Message: err.Error()}
	}
	res, err := s.engine.SearchQuery(ctx, q, opts...)
	if err != nil {
		return errResponse(err)
	}
	hits = slices.Grow(hits, len(res.Hits))
	for _, h := range res.Hits {
		hits = append(hits, wire.Hit{ID: uint32(h.ID), Distance: h.Distance, Shared: uint32(h.Shared)})
	}
	st := res.Stats
	return wire.Response{
		Status: wire.StatusOK,
		Hits:   hits,
		Stats: wire.Stats{
			Candidates:   uint64(st.Candidates),
			Pruned:       uint64(st.Pruned),
			NodePruned:   uint64(st.NodePruned),
			WirePartials: uint64(st.WirePartials),
			Shards:       uint64(st.ShardsTouched),
			Nodes:        uint64(st.NodesTouched),
			ElapsedUS:    uint64(st.Elapsed.Microseconds()),
		},
	}
}

// searchOptions maps the wire search parameters, then extra, onto the
// public functional options, rejecting invalid combinations before the
// engine runs (their errors are the client's fault, not the server's).
// Version 1 carries the one result cap in two slots, limit and knn: the
// set one becomes WithKNN, and a request setting both is refused.
func searchOptions(req *wire.Request, extra ...geodabs.SearchOption) ([]geodabs.SearchOption, error) {
	if math.IsNaN(req.MaxDistance) || req.MaxDistance < 0 || req.MaxDistance > 1 {
		return nil, fmt.Errorf("max distance %v out of range [0, 1]", req.MaxDistance)
	}
	if req.KNN > 0 && req.Limit > 0 {
		return nil, errors.New("knn and limit are mutually exclusive")
	}
	// Sized once: the distance, a cap and the extra options.
	opts := make([]geodabs.SearchOption, 1, 2+len(extra))
	opts[0] = geodabs.WithMaxDistance(req.MaxDistance)
	if k := max(req.KNN, req.Limit); k > 0 {
		opts = append(opts, geodabs.WithKNN(k))
	}
	return append(opts, extra...), nil
}

// rerankMetricOf maps a wire metric tag onto the exact metric it names,
// nil for an unknown tag. On a cluster engine the search pushes the
// scoring down to the shard nodes owning the retained points.
func rerankMetricOf(m uint8) geodabs.RerankMetric {
	switch m {
	case wire.MetricDTW:
		return geodabs.DTW
	case wire.MetricDFD:
		return geodabs.DFD
	default:
		return nil
	}
}

// errResponse maps an engine error onto a wire status.
func errResponse(err error) wire.Response {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return wire.Response{Status: wire.StatusDeadlineExceeded}
	case errors.Is(err, geodabs.ErrNotFound):
		return wire.Response{Status: wire.StatusNotFound, Message: err.Error()}
	case errors.Is(err, geodabs.ErrClosed):
		return wire.Response{Status: wire.StatusShuttingDown}
	default:
		return wire.Response{Status: wire.StatusError, Message: err.Error()}
	}
}

// Shutdown drains the server gracefully: it stops accepting connections,
// refuses new requests with SHUTTING_DOWN, waits for in-flight requests
// to finish (bounded by ctx), then closes every connection. It returns
// nil when the drain completed, ctx.Err() when the deadline expired with
// requests still running (they are then cut off by the connection
// close). Shutdown and Close are idempotent and safe to call
// concurrently; later calls return nil without waiting.
func (s *Server) Shutdown(ctx context.Context) error {
	first := false
	s.closeOnce.Do(func() { first = true })
	if !first {
		return nil
	}
	close(s.draining)
	s.ln.Close()
	s.drainMu.Lock()
	s.drainStarted = true
	s.drainMu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if err == nil {
		// Every request finished, but its response may still sit in a
		// writer channel. Close only the read sides: readers unwind with
		// EOF, connection handlers flush their writers and close their
		// own sockets. A client that stops reading cannot stall the
		// drain past ctx.
		s.closeReads()
		connsDone := make(chan struct{})
		go func() {
			s.connWG.Wait()
			close(connsDone)
		}()
		select {
		case <-connsDone:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	s.closeConns()
	if err == nil {
		s.connWG.Wait()
	}
	return err
}

// closeReads shuts down the read side of every tracked connection,
// unwinding its read loop while pending responses still flush.
func (s *Server) closeReads() {
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		if tc, ok := c.(*net.TCPConn); ok {
			tc.CloseRead()
		} else {
			c.SetReadDeadline(time.Now())
		}
	}
}

// Close shuts the server down immediately: in-flight requests are cut
// off by their connections closing. Idempotent.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: skip the drain wait
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		err = nil
	}
	return err
}

// closeConns marks the server closed and tears down every tracked
// connection.
func (s *Server) closeConns() {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// isClosedConn reports the read error of a connection torn down by
// Close/Shutdown, which is expected unwinding, not a protocol problem.
func isClosedConn(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrUnexpectedEOF)
}
