package server_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geodabs"
	"geodabs/client"
	"geodabs/internal/server"
	"geodabs/internal/wire"
)

// testWorld caches a small generated city + dataset for the server
// tests.
var testWorld = sync.OnceValue(func() *worldData {
	city, err := geodabs.GenerateCity(geodabs.CityConfig{RadiusMeters: 3000, Seed: 7})
	if err != nil {
		panic(err)
	}
	cfg := geodabs.DefaultDatasetConfig()
	cfg.Routes = 6
	cfg.TrajectoriesPerDirection = 3
	cfg.MinRouteMeters = 2000
	out, err := geodabs.GenerateDataset(city, cfg)
	if err != nil {
		panic(err)
	}
	return &worldData{dataset: out.Dataset, queries: out.Queries}
})

type worldData struct {
	dataset *geodabs.Dataset
	queries []*geodabs.Trajectory
}

// stubEngine is a controllable Engine: every call holds for delay (or
// until ctx cancels), then succeeds with a canned result.
type stubEngine struct {
	delay    time.Duration
	searches atomic.Int64
	upserts  atomic.Int64
	deletes  atomic.Int64
}

func (e *stubEngine) wait(ctx context.Context) error {
	if e.delay == 0 {
		return ctx.Err()
	}
	t := time.NewTimer(e.delay)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (e *stubEngine) result() *geodabs.SearchResult {
	return &geodabs.SearchResult{
		Hits:  []geodabs.Result{{ID: 1, Distance: 0.125, Shared: 7}},
		Stats: geodabs.SearchStats{Candidates: 3, ShardsTouched: 2, NodesTouched: 1},
	}
}

func (e *stubEngine) Search(ctx context.Context, q *geodabs.Trajectory, opts ...geodabs.SearchOption) (*geodabs.SearchResult, error) {
	e.searches.Add(1)
	if err := e.wait(ctx); err != nil {
		return nil, err
	}
	return e.result(), nil
}

func (e *stubEngine) SearchQuery(ctx context.Context, q *geodabs.Query, opts ...geodabs.SearchOption) (*geodabs.SearchResult, error) {
	e.searches.Add(1)
	if err := e.wait(ctx); err != nil {
		return nil, err
	}
	return e.result(), nil
}

func (e *stubEngine) Upsert(ctx context.Context, t *geodabs.Trajectory) error {
	e.upserts.Add(1)
	return e.wait(ctx)
}

func (e *stubEngine) Delete(ctx context.Context, id geodabs.ID) error {
	e.deletes.Add(1)
	if err := e.wait(ctx); err != nil {
		return err
	}
	if id == 404 {
		return geodabs.ErrNotFound
	}
	return nil
}

func (e *stubEngine) DeleteAll(ctx context.Context, ids []geodabs.ID, workers int) (int, error) {
	return 0, errors.New("not wired over the protocol")
}

func startServer(t *testing.T, engine server.Engine, cfg server.Config) *server.Server {
	t.Helper()
	srv, err := server.Listen("127.0.0.1:0", engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestServeRealIndex drives the full loop against a real local index:
// remote upserts, thin-client fingerprint search, raw search, delete,
// and the not-found reply.
func TestServeRealIndex(t *testing.T) {
	w := testWorld()
	idx, err := geodabs.NewIndex(geodabs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, idx, server.Config{})
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if err := cl.Ping(ctx); err != nil {
		t.Fatalf("ping: %v", err)
	}
	for _, tr := range w.dataset.Trajectories {
		if err := cl.Upsert(ctx, tr); err != nil {
			t.Fatalf("upsert %d: %v", tr.ID, err)
		}
	}
	if idx.Len() != w.dataset.Len() {
		t.Fatalf("index has %d trajectories after remote upserts, want %d", idx.Len(), w.dataset.Len())
	}

	// Thin-client path: winnow locally, ship the fingerprint.
	q := w.queries[0]
	f, err := geodabs.NewFingerprinter(geodabs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.SearchFingerprint(ctx, f.Fingerprint(q.Points), client.WithMaxDistance(0.99), client.WithKNN(10))
	if err != nil {
		t.Fatalf("fingerprint search: %v", err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("fingerprint search returned no hits")
	}
	top := w.dataset.ByID(res.Hits[0].ID)
	if top == nil || top.Route != q.Route || top.Dir != q.Dir {
		t.Errorf("top hit %v does not match query route %d/%v", res.Hits[0], q.Route, q.Dir)
	}

	// Raw path must agree with the thin-client path on the same query.
	raw, err := cl.Search(ctx, q.Points, client.WithMaxDistance(0.99), client.WithKNN(10))
	if err != nil {
		t.Fatalf("raw search: %v", err)
	}
	if len(raw.Hits) != len(res.Hits) || raw.Hits[0] != res.Hits[0] {
		t.Errorf("raw search disagrees with fingerprint search: %v vs %v", raw.Hits, res.Hits)
	}

	victim := res.Hits[0].ID
	if err := cl.Delete(ctx, victim); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := cl.Delete(ctx, victim); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("second delete: got %v, want ErrNotFound", err)
	}
	if !errors.Is(client.ErrNotFound, geodabs.ErrNotFound) {
		t.Error("client.ErrNotFound should alias geodabs.ErrNotFound")
	}
}

// TestFingerprintEdgeCases pins what the public surface does with the
// fingerprints at the edges: a trajectory too short to fingerprint has an
// empty set, which searches to no hits (through the client and the
// server, and locally) and lies at Jaccard distance 0 from another empty
// one; a Fingerprint literal carries no set at all, which the client
// refuses and QueryFromFingerprint searches as empty.
func TestFingerprintEdgeCases(t *testing.T) {
	w := testWorld()
	idx, err := geodabs.NewIndex(geodabs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.AddAll(w.dataset, 2); err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, idx, server.Config{})
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	f, err := geodabs.NewFingerprinter(geodabs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	short := f.Fingerprint(w.queries[0].Points[:3])
	if n := short.Set.Cardinality(); n != 0 {
		t.Fatalf("a 3-point trajectory has %d terms, want none", n)
	}
	res, err := cl.SearchFingerprint(ctx, short, client.WithKNN(10))
	if err != nil || len(res.Hits) != 0 {
		t.Fatalf("short fingerprint over the wire: %v, %v; want no hits and no error", res, err)
	}
	if d := geodabs.JaccardDistance(short, f.Fingerprint(nil)); d != 0 {
		t.Errorf("JaccardDistance of two empty fingerprints = %v, want 0", d)
	}

	for _, fp := range []*geodabs.Fingerprint{nil, {}} {
		if _, err := cl.SearchFingerprint(ctx, fp); err == nil || err.Error() != "client: nil fingerprint" {
			t.Errorf("SearchFingerprint(%v): %v, want client: nil fingerprint", fp, err)
		}
	}
	local, err := idx.SearchQuery(ctx, geodabs.QueryFromFingerprint(&geodabs.Fingerprint{}), geodabs.WithKNN(10))
	if err != nil || len(local.Hits) != 0 {
		t.Fatalf("QueryFromFingerprint of a Fingerprint literal: %v, %v; want no hits and no error", local, err)
	}
}

// floodConn pipelines count search requests on one raw connection and
// tallies the reply statuses.
func floodConn(t *testing.T, addr string, count int, firstID uint64) (map[wire.Status]int, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(60 * time.Second))
	var buf []byte
	for i := 0; i < count; i++ {
		payload := wire.AppendRequest(nil, &wire.Request{
			ID: firstID + uint64(i), Op: wire.OpSearchFP, MaxDistance: 1, Terms: []uint32{1, 2, 3},
		})
		if buf, err = wire.AppendFrame(buf, payload); err != nil {
			return nil, err
		}
	}
	if _, err := conn.Write(buf); err != nil {
		return nil, err
	}
	statuses := make(map[wire.Status]int)
	for i := 0; i < count; i++ {
		payload, err := wire.ReadFrame(conn)
		if err != nil {
			return statuses, fmt.Errorf("response %d: %w", i, err)
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			return statuses, err
		}
		statuses[resp.Status]++
	}
	return statuses, nil
}

// TestOverloadSheds floods the server far past its admission limit and
// asserts the contract of the acceptance criteria: excess load is shed
// with explicit OVERLOADED replies, every request is answered, admitted
// requests keep a bounded p99, and goroutines do not grow with offered
// load.
func TestOverloadSheds(t *testing.T) {
	engine := &stubEngine{delay: 30 * time.Millisecond}
	srv := startServer(t, engine, server.Config{
		MaxInFlight: 4,
		MaxQueue:    4,
		MaxPipeline: 64,
	})

	const conns = 8
	const perConn = 50
	baseline := runtime.NumGoroutine()

	var peak atomic.Int64
	done := make(chan struct{})
	go func() {
		// Sample goroutine growth while the flood is in progress.
		for {
			select {
			case <-done:
				return
			default:
			}
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	results := make([]map[wire.Status]int, conns)
	errs := make([]error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c], errs[c] = floodConn(t, srv.Addr(), perConn, uint64(c*perConn))
		}(c)
	}
	wg.Wait()
	close(done)

	total := make(map[wire.Status]int)
	answered := 0
	for c := 0; c < conns; c++ {
		if errs[c] != nil {
			t.Fatalf("conn %d: %v", c, errs[c])
		}
		for st, n := range results[c] {
			total[st] += n
			answered += n
		}
	}
	if answered != conns*perConn {
		t.Fatalf("answered %d of %d requests", answered, conns*perConn)
	}
	if total[wire.StatusOK] == 0 {
		t.Error("no requests admitted under overload")
	}
	if total[wire.StatusOverloaded] == 0 {
		t.Error("no requests shed with OVERLOADED under sustained overload")
	}
	if got := total[wire.StatusOK] + total[wire.StatusOverloaded]; got != answered {
		t.Errorf("unexpected statuses: %v", total)
	}
	if srv.Metrics().Shed() == 0 {
		t.Error("shed counter did not move")
	}

	// Admitted p99 stays bounded: an admitted request waits at most the
	// queue in front of it (MaxQueue/MaxInFlight rounds of the 30ms op),
	// nowhere near the seconds an unbounded queue would reach.
	if p99 := srv.Metrics().Quantile(wire.OpSearchFP, 0.99); p99 > 1.0 {
		t.Errorf("p99 of requests = %.3fs, want bounded under overload", p99)
	}

	// Goroutines are bounded by connections and the admission limit, not
	// by the 400 offered requests: each connection owns a few goroutines
	// and at most MaxInFlight+MaxQueue requests hold one at a time.
	bound := int64(baseline + conns*4 + (4 + 4) + 24)
	if p := peak.Load(); p > bound {
		t.Errorf("goroutines peaked at %d (baseline %d, bound %d) — unbounded growth under overload", p, baseline, bound)
	}
}

// TestDeadlineRefusesLateAndCancels maps client deadlines end to end at
// the stub level: a request whose budget expires mid-execution gets
// DEADLINE_EXCEEDED, promptly.
func TestDeadlineRefusesLateAndCancels(t *testing.T) {
	engine := &stubEngine{delay: 10 * time.Second}
	srv := startServer(t, engine, server.Config{})
	cl, err := client.Dial(srv.Addr(), client.WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cl.Search(ctx, testWorld().queries[0].Points)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("deadline took %v to surface", elapsed)
	}
	// The engine call observed the cancellation (the stub returns the
	// ctx error, which the server maps onto the deadline status).
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().Requests(wire.OpSearch, wire.StatusDeadlineExceeded) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never recorded the deadline-exceeded completion")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMaxDeadlineCapsClientBudget: a client asking for more than the
// server allows is clamped to the cap.
func TestMaxDeadlineCapsClientBudget(t *testing.T) {
	engine := &stubEngine{delay: 10 * time.Second}
	srv := startServer(t, engine, server.Config{MaxDeadline: 100 * time.Millisecond})
	cl, err := client.Dial(srv.Addr(), client.WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	if _, err = cl.Search(ctx, testWorld().queries[0].Points); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded from the server cap", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("capped request took %v", elapsed)
	}
}

// TestGracefulDrain: in-flight requests finish, new requests on an open
// connection are refused with SHUTTING_DOWN, and Shutdown returns nil
// within the budget.
func TestGracefulDrain(t *testing.T) {
	engine := &stubEngine{delay: 300 * time.Millisecond}
	srv := startServer(t, engine, server.Config{})

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))

	send := func(id uint64) {
		payload := wire.AppendRequest(nil, &wire.Request{ID: id, Op: wire.OpSearchFP, MaxDistance: 1, Terms: []uint32{1}})
		frame, err := wire.AppendFrame(nil, payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	recv := func() *wire.Response {
		payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	send(1) // in flight when the drain starts
	time.Sleep(50 * time.Millisecond)

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()
	time.Sleep(50 * time.Millisecond) // let the drain flag flip
	send(2)                           // arrives mid-drain

	got := map[uint64]wire.Status{}
	for i := 0; i < 2; i++ {
		r := recv()
		got[r.ID] = r.Status
	}
	if got[1] != wire.StatusOK {
		t.Errorf("in-flight request finished with %v, want OK", got[1])
	}
	if got[2] != wire.StatusShuttingDown {
		t.Errorf("mid-drain request got %v, want SHUTTING_DOWN", got[2])
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("drain did not complete in time: %v", err)
	}
	// The listener is gone: new connections are refused.
	if c, err := net.DialTimeout("tcp", srv.Addr(), time.Second); err == nil {
		c.Close()
		t.Error("dial succeeded after drain")
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close after Shutdown: %v", err)
	}
}

// TestClientRetriesOverloaded: an idempotent read shed with OVERLOADED
// is retried and succeeds once capacity frees up.
func TestClientRetriesOverloaded(t *testing.T) {
	engine := &stubEngine{delay: 150 * time.Millisecond}
	srv := startServer(t, engine, server.Config{MaxInFlight: 1, MaxQueue: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Saturate the single slot and the single queue seat with slow
	// searches (ping never reaches the engine, so it cannot hold a slot
	// long enough).
	hold, err := client.Dial(srv.Addr(), client.WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hold.Search(ctx, testWorld().queries[0].Points)
		}()
	}
	time.Sleep(30 * time.Millisecond)

	cl, err := client.Dial(srv.Addr(), client.WithMaxRetries(8))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(ctx); err != nil {
		t.Fatalf("retried read failed: %v", err)
	}
	wg.Wait()
	if srv.Metrics().Shed() == 0 {
		t.Error("expected at least one shed during saturation")
	}
}

// TestBadFrameDropsConnection: an undecodable payload gets a BAD_REQUEST
// reply, then the connection is closed.
func TestBadFrameDropsConnection(t *testing.T) {
	srv := startServer(t, &stubEngine{}, server.Config{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	frame, err := wire.AppendFrame(nil, []byte{0xDE, 0xAD, 0xBE, 0xEF})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusBadRequest {
		t.Fatalf("got %v, want BAD_REQUEST", resp.Status)
	}
	if _, err := wire.ReadFrame(conn); err == nil {
		t.Error("connection stayed open after a bad frame")
	}
}

// TestNonFinitePointsRejected: a NaN or infinite coordinate on any op
// that carries points gets BAD_REQUEST before the engine sees it, and the
// connection stays usable.
func TestNonFinitePointsRejected(t *testing.T) {
	engine := &stubEngine{}
	srv := startServer(t, engine, server.Config{})
	roundTrip := rawRoundTrip(t, srv.Addr())
	good := testWorld().queries[0].Points
	ops := []wire.Request{
		{Op: wire.OpSearch, MaxDistance: 1},
		{Op: wire.OpSearchRerank, MaxDistance: 1, KNN: 5, Metric: wire.MetricDTW},
		{Op: wire.OpUpsert, TrajID: 9},
	}
	for _, bad := range []geodabs.Point{
		{Lat: math.NaN(), Lon: good[0].Lon},
		{Lat: good[0].Lat, Lon: math.NaN()},
		{Lat: math.Inf(1), Lon: good[0].Lon},
		{Lat: good[0].Lat, Lon: math.Inf(-1)},
	} {
		pts := append([]geodabs.Point{}, good...)
		pts[len(pts)/2] = bad
		for _, op := range ops {
			req := op
			req.Points = pts
			if resp := roundTrip(&req); resp.Status != wire.StatusBadRequest {
				t.Errorf("op %v with point %v: got %v, want BAD_REQUEST", op.Op, bad, resp.Status)
			}
		}
	}
	if n, m := engine.searches.Load(), engine.upserts.Load(); n != 0 || m != 0 {
		t.Fatalf("engine saw %d searches and %d upserts of rejected requests", n, m)
	}
	for _, op := range ops {
		req := op
		req.Points = good
		if resp := roundTrip(&req); resp.Status != wire.StatusOK {
			t.Errorf("op %v with finite points: got %v (%s), want OK", op.Op, resp.Status, resp.Message)
		}
	}
}

// rawRoundTrip dials addr and returns a function that sends one request
// on that connection, numbered in turn, and decodes its reply. The
// connection closes with the test.
func rawRoundTrip(t *testing.T, addr string) func(*wire.Request) *wire.Response {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	var id uint64
	return func(req *wire.Request) *wire.Response {
		t.Helper()
		id++
		req.ID = id
		frame, err := wire.AppendFrame(nil, wire.AppendRequest(nil, req))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
}

// TestResultCapSlots pins how the server reads version 1's two slots for
// the one result cap: limit alone and knn alone rank the same hits, the
// top of the uncapped ranking, and a request setting both is refused
// with BAD_REQUEST on a connection that stays open. No client in the
// module sends limit, so only raw requests reach that slot.
func TestResultCapSlots(t *testing.T) {
	w := testWorld()
	idx, err := geodabs.NewIndex(geodabs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.AddAll(w.dataset, 2); err != nil {
		t.Fatal(err)
	}
	f, err := geodabs.NewFingerprinter(geodabs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	roundTrip := rawRoundTrip(t, startServer(t, idx, server.Config{}).Addr())
	q := w.queries[5].Points // eight hits uncapped
	for _, op := range []wire.Request{
		{Op: wire.OpSearch, MaxDistance: 1, Points: q},
		{Op: wire.OpSearchFP, MaxDistance: 1, Terms: f.Fingerprint(q).Set.ToSlice()},
	} {
		search := func(limit, knn int) *wire.Response {
			t.Helper()
			req := op
			req.Limit, req.KNN = limit, knn
			return roundTrip(&req)
		}
		all, byLimit, byKNN := search(0, 0), search(5, 0), search(0, 5)
		for _, r := range []*wire.Response{all, byLimit, byKNN} {
			if r.Status != wire.StatusOK {
				t.Fatalf("op %v: got %v (%s), want OK", op.Op, r.Status, r.Message)
			}
		}
		if len(all.Hits) <= 5 {
			t.Fatalf("op %v: only %d hits uncapped; the cap shows nothing", op.Op, len(all.Hits))
		}
		if !reflect.DeepEqual(byLimit.Hits, byKNN.Hits) || !reflect.DeepEqual(byKNN.Hits, all.Hits[:5]) {
			t.Errorf("op %v: limit 5 hits %v, knn 5 hits %v, want both the top 5 of %v", op.Op, byLimit.Hits, byKNN.Hits, all.Hits[:5])
		}
		if r := search(5, 5); r.Status != wire.StatusBadRequest {
			t.Errorf("op %v with limit and knn both set: got %v (%s), want BAD_REQUEST", op.Op, r.Status, r.Message)
		}
		if r := search(0, 5); r.Status != wire.StatusOK || !reflect.DeepEqual(r.Hits, byKNN.Hits) {
			t.Errorf("op %v after a refused request: got %v (%s), want the same hits on the same connection", op.Op, r.Status, r.Message)
		}
	}
}

// TestMetricsExposition scrapes the /metrics handler and checks the key
// series are present and well-formed.
func TestMetricsExposition(t *testing.T) {
	engine := &stubEngine{}
	srv := startServer(t, engine, server.Config{})
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cl.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Search(ctx, testWorld().queries[0].Points); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	srv.Metrics().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"geodabsd_connections_opened_total 1",
		`geodabsd_requests_total{op="ping",status="ok"} 1`,
		`geodabsd_requests_total{op="search",status="ok"} 1`,
		`geodabsd_request_seconds_bucket{op="search",le="+Inf"} 1`,
		"geodabsd_shed_total 0",
		"geodabsd_in_flight_requests 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n%s", want, body)
		}
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
}

// TestClientCancelAfterReturnDoesNotPoisonPool guards the client's
// discard rule for its cancellation poke. A call registers
// context.AfterFunc to poke SetDeadline(now) into its connection, and
// callers routinely cancel the context the moment the call returns. When
// the call's stop finds that poke already started, it cannot tell
// whether the poke has landed, so the connection must be discarded, not
// checked back in: kept, a deadline landing late would time out whichever
// request next held it. The bad interleaving is a cancel racing the end
// of the round trip — rare in-process, and also exercised against a
// separate-process server by the upsert churn of cmd/geodabsd's
// TestSnapshotService.
// Here heavy cancel-after-return churn over a tiny pool must stay
// error-free.
func TestClientCancelAfterReturnDoesNotPoisonPool(t *testing.T) {
	srv := startServer(t, &stubEngine{}, server.Config{})
	cl, err := client.Dial(srv.Addr(), client.WithPoolSize(2), client.WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const workers = 8
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				err := cl.Ping(ctx)
				cancel() // immediately, like a per-iteration defer-less loop
				if err != nil {
					errc <- fmt.Errorf("iteration %d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestServeExactRerank drives the remote refinement op end to end: a
// retaining index behind the server, a client search naming a built-in
// metric, and hits byte-identical to a local rerank. The fingerprint
// path must keep rejecting rerank — there are no raw query points to
// score.
func TestServeExactRerank(t *testing.T) {
	w := testWorld()
	idx, err := geodabs.NewIndex(geodabs.DefaultConfig(), geodabs.WithPointRetention())
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range w.dataset.Trajectories {
		if err := idx.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	srv := startServer(t, idx, server.Config{})
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	q := w.queries[0]
	want, err := idx.Search(ctx, q, geodabs.WithKNN(5), geodabs.WithExactRerank(geodabs.DTW))
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.Search(ctx, q.Points, client.WithKNN(5), client.WithExactRerank(client.DTW))
	if err != nil {
		t.Fatalf("remote rerank search: %v", err)
	}
	if len(got.Hits) != len(want.Hits) {
		t.Fatalf("remote rerank returned %d hits, local %d", len(got.Hits), len(want.Hits))
	}
	for i := range want.Hits {
		if got.Hits[i] != want.Hits[i] {
			t.Fatalf("hit %d: remote %+v, local %+v", i, got.Hits[i], want.Hits[i])
		}
	}

	f, err := geodabs.NewFingerprinter(geodabs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SearchFingerprint(ctx, f.Fingerprint(q.Points), client.WithExactRerank(client.DTW)); err == nil {
		t.Fatal("fingerprint search accepted WithExactRerank")
	}
}

// wideEngine answers every search with hits enough that a few replies
// fill a connection's socket buffers.
type wideEngine struct {
	stubEngine
	res *geodabs.SearchResult
}

func (e *wideEngine) SearchQuery(ctx context.Context, q *geodabs.Query, opts ...geodabs.SearchOption) (*geodabs.SearchResult, error) {
	return e.res, nil
}

// TestNonReadingClientHoldsOnlyItsPipeline: a client that pipelines
// requests and never reads their replies wedges its own connection and
// nothing else. Its replies hold its pipeline slots, not execution
// slots — not even the one whose reply is stuck mid-write — so with
// MaxInFlight = MaxPipeline and as many such clients as slots, another
// client is still answered.
func TestNonReadingClientHoldsOnlyItsPipeline(t *testing.T) {
	hits := make([]geodabs.Result, 1<<17) // ~1.5 MB per reply
	for i := range hits {
		hits[i] = geodabs.Result{ID: geodabs.ID(i), Distance: 0.5, Shared: 3}
	}
	srv := startServer(t, &wideEngine{res: &geodabs.SearchResult{Hits: hits}}, server.Config{MaxInFlight: 2, MaxPipeline: 2})

	// Two connections pipeline searches and never read a reply: as many
	// as there are execution slots, and each wedges one writer.
	var flood []byte
	for i := 1; i <= 64; i++ {
		payload := wire.AppendRequest(nil, &wire.Request{ID: uint64(i), Op: wire.OpSearchFP, MaxDistance: 1, Terms: []uint32{1}})
		var err error
		if flood, err = wire.AppendFrame(flood, payload); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 {
		a, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		a.SetWriteDeadline(time.Now().Add(10 * time.Second))
		if _, err := a.Write(flood); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the connections to wedge: the server stops executing
	// their searches once the replies it cannot write fill the socket
	// buffers.
	searched := func() uint64 { return srv.Metrics().Requests(wire.OpSearchFP, wire.StatusOK) }
	deadline := time.Now().Add(10 * time.Second)
	for last := ^uint64(0); searched() != last; {
		if time.Now().After(deadline) {
			t.Fatal("the non-reading connections never stopped being served")
		}
		last = searched()
		time.Sleep(250 * time.Millisecond)
	}
	if n := searched(); n >= 2*64 {
		t.Fatalf("all %d searches were answered: the replies never filled the socket buffers", n)
	}

	b, err := client.Dial(srv.Addr(), client.WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := b.Ping(ctx); err != nil {
		t.Fatalf("ping beside non-reading clients: %v", err)
	}
}

// barrierEngine holds every search until want searches have started.
type barrierEngine struct {
	stubEngine
	want    int32
	started atomic.Int32
	all     chan struct{}
}

func (e *barrierEngine) SearchQuery(ctx context.Context, q *geodabs.Query, opts ...geodabs.SearchOption) (*geodabs.SearchResult, error) {
	if e.started.Add(1) == e.want {
		close(e.all)
	}
	select {
	case <-e.all:
		return e.result(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestPipelinedRequestsRunConcurrently: two requests arriving in one
// write both execute at once, so a buffered second request is never
// serialized behind the first. Each search waits for the other to start;
// run one after the other, both would miss their deadlines.
func TestPipelinedRequestsRunConcurrently(t *testing.T) {
	srv := startServer(t, &barrierEngine{want: 2, all: make(chan struct{})}, server.Config{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	var frames []byte
	for id := uint64(1); id <= 2; id++ {
		payload := wire.AppendRequest(nil, &wire.Request{ID: id, Op: wire.OpSearchFP, DeadlineMS: 2000, MaxDistance: 1, Terms: []uint32{1}})
		if frames, err = wire.AppendFrame(frames, payload); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	got := map[uint64]wire.Status{}
	for i := 0; i < 2; i++ {
		payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		got[resp.ID] = resp.Status
	}
	if got[1] != wire.StatusOK || got[2] != wire.StatusOK {
		t.Fatalf("replies by request id: %v, want both OK", got)
	}
}
