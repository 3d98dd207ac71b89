package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"geodabs/internal/core"
	"geodabs/internal/index"
	"geodabs/internal/rerank"
	"geodabs/internal/shard"
	"geodabs/internal/trajectory"
	"geodabs/internal/wal"
	"geodabs/internal/wire"
)

// startFakeNode listens like a shard node and runs serve on every
// accepted connection: the peer on the other end of a coordinator's or a
// replica's socket, misbehaving in ways a real Node never does. Closing
// the returned listener early frees its address for a real node.
func startFakeNode(t *testing.T, serve func(net.Conn)) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				serve(conn)
			}()
		}
	}()
	return ln
}

// swallow is a wedged node's serve: requests vanish into it, unanswered,
// until the connection is torn down.
func swallow(c net.Conn) { io.Copy(io.Discard, c) }

// roundTrip is client.call for tests: the reply of the request's kind,
// copied out of the connection's buffers.
func roundTrip(ctx context.Context, cl *client, req *request) (*response, error) {
	var out *response
	err := cl.call(ctx, req, func(r *response) {
		cp := *r
		cp.Query.pairs = bytes.Clone(r.Query.pairs)
		out = &cp
	})
	return out, err
}

// pairsOf lists a query reply's partial counts.
func pairsOf(p partials) (ids, counts []uint32) {
	for b := p.pairs; len(b) >= partialSize; b = b[partialSize:] {
		ids = append(ids, binary.LittleEndian.Uint32(b))
		counts = append(counts, binary.LittleEndian.Uint32(b[4:]))
	}
	return ids, counts
}

// dialFrames opens a raw framed connection to a node, for requests no
// coordinator would send.
func dialFrames(t *testing.T, addr string) *wire.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return wire.NewConn(conn, maxFrame)
}

// exchange sends one request payload on f and decodes the reply.
func exchange(t *testing.T, f *wire.Conn, payload []byte) response {
	t.Helper()
	if err := f.SendFrame(append(f.BeginFrame(), payload...)); err != nil {
		t.Fatal(err)
	}
	p, err := f.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := resp.decode(p); err != nil {
		t.Fatal(err)
	}
	return resp
}

// serveFrames is a fake node's serve loop: it acknowledges every
// mutation and answers every other request with reply(op).
func serveFrames(reply func(op) []byte) func(net.Conn) {
	return func(conn net.Conn) {
		f := wire.NewConn(conn, maxFrame)
		for {
			p, err := f.ReadFrame()
			if err != nil {
				return
			}
			var req request
			if req.decode(p) != nil {
				return
			}
			out := []byte{byte(opMutate)}
			if req.Op != opMutate {
				out = reply(req.Op)
			}
			if f.SendFrame(append(f.BeginFrame(), out...)) != nil {
				return
			}
		}
	}
}

// TestMismatchedNodeReplyIsAnError: a node answering a query, a rerank or
// a stats request with a reply that is not of the request's kind, or
// whose body is cut short, gets a cluster error back — not a panic in the
// coordinator. A stats answer without its body used to be a nil
// dereference. So does a query reply whose count exceeds the query.
func TestMismatchedNodeReplyIsAnError(t *testing.T) {
	tr, q := testWorkload.Dataset.Trajectories[0], testWorkload.Queries[0]
	ex := index.GeodabExtractor{Fingerprinter: core.MustFingerprinter(core.DefaultConfig())}
	for _, tc := range []struct {
		name  string
		reply func(op) []byte
	}{
		{"an acknowledgement without a body", func(op) []byte { return []byte{byte(opMutate)} }},
		{"a heartbeat", func(op) []byte { return []byte{byte(opHeartbeat), 0} }},
		{"its own kind, cut short", func(o op) []byte { return []byte{byte(o)} }},
	} {
		fake := startFakeNode(t, serveFrames(tc.reply))
		coord, err := NewCoordinator(ex, shard.Strategy{PrefixBits: 16, Shards: 16, Nodes: 1}, []string{fake.Addr().String()}, Options{RetainPoints: true})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := coord.Add(ctx, tr); err != nil { // tr is now live, its points owned by node 0
			t.Fatal(err)
		}
		checkErr := func(call string, err error) {
			t.Helper()
			if err == nil || !strings.HasPrefix(err.Error(), "cluster: ") {
				t.Errorf("%s answered with %s = %v, want a cluster error", call, tc.name, err)
			}
		}
		_, _, err = search(ctx, coord, q, 1, 10)
		checkErr("Search", err)
		_, err = coord.Rerank(ctx, []index.Result{{ID: tr.ID, Shared: 1}}, q.Points, rerank.DTW, 1)
		checkErr("Rerank", err)
		_, err = coord.Stats(ctx)
		checkErr("Stats", err)
		coord.Close()
	}

	// A well-formed query reply claiming more shared terms than the query
	// has: the ranking walk sizes its count buckets by |F|, never by a
	// count off the wire.
	card := uint32(len(ex.Extract(q.Points)))
	for _, count := range []uint32{card + 1, 1<<32 - 1} {
		fake := startFakeNode(t, serveFrames(func(op) []byte {
			return endPartials(appendPartial(beginPartials(nil), uint32(tr.ID), count), 0, 0)
		}))
		coord, err := NewCoordinator(ex, shard.Strategy{PrefixBits: 16, Shards: 16, Nodes: 1}, []string{fake.Addr().String()}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := coord.Add(ctx, tr); err != nil {
			t.Fatal(err)
		}
		if _, _, err := search(ctx, coord, q, 1, 10); err == nil || !strings.HasPrefix(err.Error(), "cluster: ") {
			t.Errorf("Search answered with count %d against |F| = %d: %v, want a cluster error", count, card, err)
		}
		coord.Close()
	}
}

// syncThenSwallow is a primary that answers a replication request with
// an empty full sync and then goes silent without closing; each full
// sync served is signalled on syncs.
func syncThenSwallow(syncs chan<- struct{}) func(net.Conn) {
	return func(conn net.Conn) {
		f := wire.NewConn(conn, maxFrame)
		p, err := f.ReadFrame()
		var req request
		if err != nil || req.decode(p) != nil || req.Op != opSync {
			return
		}
		if f.SendFrame((&syncHeader{}).append(f.BeginFrame())) == nil {
			syncs <- struct{}{}
			swallow(conn) // silent, open, until the peer hangs up
		}
	}
}

// TestReplicaRedialsSilentPrimary: a primary that completes the full
// sync and then goes silent without closing — a half-open TCP connection
// seen from the replica — has broken its heartbeat promise; the replica
// must dial again rather than serve an ever-staler state for ever.
func TestReplicaRedialsSilentPrimary(t *testing.T) {
	syncs := make(chan struct{}, 16) // never blocks the fake: more than the dials one test sees
	primary := startFakeNode(t, syncThenSwallow(syncs))
	replica, err := StartNode("127.0.0.1:0", WithReplicaOf(primary.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	for i := 1; i <= 2; i++ {
		select {
		case <-syncs:
		case <-time.After(10 * time.Second): // several heartbeat intervals plus the longest backoff
			t.Fatalf("full sync %d never requested: the replica is still reading the silent stream", i)
		}
	}
}

// TestDirectoryRecoveryGivesUpOnSilentNode: a node that accepts the
// recovery connection and never sends its full sync must fail the
// coordinator's construction within the per-frame read bound, not hang
// it.
func TestDirectoryRecoveryGivesUpOnSilentNode(t *testing.T) {
	silent := startFakeNode(t, swallow)
	ex := index.GeodabExtractor{Fingerprinter: core.MustFingerprinter(core.DefaultConfig())}
	done := make(chan error, 1)
	go func() {
		coord, err := NewCoordinator(ex, shard.Strategy{PrefixBits: 16, Shards: 16, Nodes: 1}, []string{silent.Addr().String()}, Options{RecoverDirectory: true})
		if err == nil {
			coord.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("directory recovery from a node that never answered succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("NewCoordinator with directory recovery still waiting on a silent node")
	}
}

// relay fronts the real node at upstream and relays every request and
// reply, asking pass of each request it decodes what to do with it: a
// request not forwarded is answered with an error and never reaches the
// node, and a forwarded one whose reply is lost is answered with an
// error once the node has applied it.
func relay(t *testing.T, upstream string, pass func(req *request) (forward, lose bool)) net.Listener {
	return startFakeNode(t, func(conn net.Conn) {
		up, err := net.Dial("tcp", upstream)
		if err != nil {
			return
		}
		defer up.Close()
		down, upf := wire.NewConn(conn, maxFrame), wire.NewConn(up, maxFrame)
		var req request
		for {
			p, err := down.ReadFrame()
			if err != nil {
				return
			}
			forward, lose := true, false
			if req.decode(p) == nil {
				forward, lose = pass(&req)
			}
			if forward {
				if upf.SendFrame(append(upf.BeginFrame(), p...)) != nil {
					return
				}
				r, err := upf.ReadFrame()
				if err != nil {
					return
				}
				if !lose {
					if down.SendFrame(append(down.BeginFrame(), r...)) != nil {
						return
					}
					continue
				}
			}
			if down.SendFrame(appendError(down.BeginFrame(), "request or acknowledgement lost")) != nil {
				return
			}
		}
	})
}

// loseMutationAcks fronts the real node at upstream and relays every
// request, but while fail is set it answers each mutation with an error
// once the node has applied it: a node whose acknowledgements are lost.
func loseMutationAcks(t *testing.T, upstream string, fail *atomic.Bool) net.Listener {
	return relay(t, upstream, func(req *request) (bool, bool) {
		return true, req.Op == opMutate && fail.Load()
	})
}

// TestFailedUpsertLeavesIDDeleting pins what a failed Upsert leaves. Of an
// indexed ID: the ID deleting — withdrawn from results, refused by Add —
// and recorded as held by the nodes of both versions, so that a retried
// Upsert or Delete reaches the node the new version landed on as well as
// the one the old version held, and strands no posting. The old version
// lives on node 0; the new one on node 1, which applies it and loses the
// acknowledgement. Of an ID that was not indexed: Add's semantics — the
// reservation is withdrawn, and the ID is free once the failed add's
// fences land.
func TestFailedUpsertLeavesIDDeleting(t *testing.T) {
	// Under latExtractor's strategy, terms 0, 1, 4 and 5 live on node 0,
	// terms 2, 3, 6 and 7 on node 1.
	start := func(t *testing.T) (*Coordinator, *atomic.Bool, *index.Inverted) {
		nodes, _ := startNodes(t, 2)
		fail := new(atomic.Bool)
		addrs := []string{nodes[0].Addr(), loseMutationAcks(t, nodes[1].Addr(), fail).Addr().String()}
		coord, err := NewCoordinator(latExtractor{}, shard.Strategy{PrefixBits: 31, Shards: 1 << 31, Nodes: 2}, addrs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { coord.Close() })
		return coord, fail, index.New(latExtractor{}, false)
	}
	ctx := context.Background()
	query := termTrajectory(0, 0, 1, 2, 3, 4, 5, 6, 7)
	// converged checks the cluster against the local index: the same
	// ranking, and not one posting more.
	converged := func(t *testing.T, coord *Coordinator, local *index.Inverted) {
		t.Helper()
		for _, limit := range []int{0, 1} {
			want, _, err := localSearch(ctx, local, query, 1, limit)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := search(ctx, coord, query, 1, limit)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("limit %d: cluster ranks %+v, local index %+v", limit, got, want)
			}
		}
		if got, want := totalPostings(t, coord), local.Stats().Postings; got != want {
			t.Errorf("the cluster holds %d postings, the local index %d", got, want)
		}
	}
	old, moved := termTrajectory(7, 0, 1, 4), termTrajectory(7, 2, 3, 6)
	failUpsert := func(t *testing.T) (*Coordinator, *index.Inverted) {
		coord, fail, local := start(t)
		if err := coord.Add(ctx, old); err != nil {
			t.Fatal(err)
		}
		fail.Store(true)
		if err := coord.Upsert(ctx, moved); err == nil {
			t.Fatal("Upsert succeeded though node 1 lost its acknowledgement")
		}
		fail.Store(false)
		if hits, _, err := search(ctx, coord, query, 1, 0); err != nil || len(hits) != 0 {
			t.Errorf("after the failed Upsert: %+v, %v; want the ID withdrawn", hits, err)
		}
		if err := coord.Add(ctx, old); err == nil {
			t.Error("Add of the failed Upsert's ID succeeded")
		}
		coord.mu.RLock()
		entry := coord.directory[moved.ID]
		coord.mu.RUnlock()
		if entry.state != stateDeleting || entry.nodes != 0b11 {
			t.Errorf("directory entry state %d nodes %b, want deleting on both nodes", entry.state, entry.nodes)
		}
		return coord, local
	}

	t.Run("retried Upsert", func(t *testing.T) {
		coord, local := failUpsert(t)
		again := termTrajectory(7, 0, 5) // node 0 only: node 1's copy goes by the retry's delete
		if err := coord.Upsert(ctx, again); err != nil {
			t.Fatal(err)
		}
		local.Upsert(again)
		converged(t, coord, local)
	})
	t.Run("retried Delete", func(t *testing.T) {
		coord, local := failUpsert(t)
		if err := coord.Delete(ctx, moved.ID); err != nil {
			t.Fatal(err)
		}
		converged(t, coord, local)
	})
	t.Run("absent ID", func(t *testing.T) {
		coord, fail, local := start(t)
		fail.Store(true)
		both := termTrajectory(9, 0, 2)
		if err := coord.Upsert(ctx, both); err == nil {
			t.Fatal("Upsert succeeded though node 1 lost its acknowledgement")
		}
		fail.Store(false)
		if err := coord.Delete(ctx, both.ID); !errors.Is(err, ErrNotFound) {
			t.Errorf("Delete after the failed insert-Upsert: %v, want ErrNotFound", err)
		}
		if err := coord.Add(ctx, both); err != nil {
			t.Fatalf("Add after the failed insert-Upsert: %v", err)
		}
		local.Upsert(both)
		converged(t, coord, local)
	})
}

// TestNodeRankedSearchFallsBack forces the second round of a node-ranked
// search. A failed write leaves node 0 holding a trajectory the
// directory refuses: a failed Upsert's new version, the ID deleting, or
// a failed Add's postings, stranded because its cleanup never reached
// node 0. The trajectory shares every term of a query that lives on node
// 0 alone, so node 0 ranks it first and ships it, and the coordinator's
// directory check refuses it. When node 0 shipped a full limit, a hit it
// did not ship might place, so the search must ask again for every
// partial — exactly once — and rank like a local index without the
// trajectory; when it shipped fewer than limit, or the search is
// uncapped, there is no second round. Once a retried write lands the
// trajectory, the directory admits what node 0 ships and no search asks
// twice.
func TestNodeRankedSearchFallsBack(t *testing.T) {
	// Under latExtractor's strategy, terms 0, 1, 4, 5, 8, 9, 12 and 13
	// live on node 0, terms 2, 3, 6 and 7 on node 1.
	query := termTrajectory(0, 0, 1, 4, 5, 8, 9)
	stray := termTrajectory(5, 0, 1, 4, 5, 8, 9)
	for _, tc := range []struct {
		name string
		// upsert fails an Upsert of stray over trajectory 5 rather than
		// an Add of it; an Add's cleanup deletes are dropped before they
		// reach node 0.
		upsert bool
	}{{"failed upsert", true}, {"failed add", false}} {
		t.Run(tc.name, func(t *testing.T) {
			nodes, _ := startNodes(t, 2)
			var fail atomic.Bool
			var capped, all atomic.Int64
			// Node 0's front counts the queries that pass and, while fail
			// is set, loses every mutation's acknowledgement, and drops a
			// failed Add's deletes unapplied.
			front := relay(t, nodes[0].Addr(), func(req *request) (bool, bool) {
				if req.Op == opQuery {
					if req.Query.Limit > 0 {
						capped.Add(1)
					} else {
						all.Add(1)
					}
				}
				lose := req.Op == opMutate && fail.Load()
				return !(lose && !tc.upsert && req.Mutate.Op == wal.OpDelete), lose
			})
			coord, err := NewCoordinator(latExtractor{}, shard.Strategy{PrefixBits: 31, Shards: 1 << 31, Nodes: 2},
				[]string{front.Addr().String(), nodes[1].Addr()}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { coord.Close() })
			local := index.New(latExtractor{}, false)
			ctx := context.Background()
			docs := []*trajectory.Trajectory{
				termTrajectory(1, 0, 1, 4),
				termTrajectory(2, 0, 1, 2),
				termTrajectory(3, 5, 6, 7),
				termTrajectory(4, 8, 9, 12, 13),
			}
			if tc.upsert {
				docs = append(docs, termTrajectory(5, 13))
			}
			for _, tr := range docs {
				if err := coord.Add(ctx, tr); err != nil {
					t.Fatal(err)
				}
				local.Upsert(tr)
			}
			fail.Store(true)
			if tc.upsert {
				if err := coord.Upsert(ctx, stray); err == nil {
					t.Fatal("Upsert succeeded though node 0 lost its acknowledgement")
				}
				fail.Store(false)
				local.Delete(5)
			} else if err := coord.Add(ctx, stray); err == nil {
				t.Fatal("Add succeeded though node 0 lost its acknowledgement")
			}
			if nodes := analyze(coord, query).Nodes; nodes != 1 {
				t.Fatalf("query spans %d nodes, want 1", nodes)
			}
			// check searches at each limit against the local index and
			// counts the ranked and all-partials queries node 0 saw.
			check := func(phase string, rounds []struct{ limit, capped, all int64 }) {
				for _, r := range rounds {
					capped.Store(0)
					all.Store(0)
					want, _, err := localSearch(ctx, local, query, 1, int(r.limit))
					if err != nil {
						t.Fatal(err)
					}
					got, info, err := search(ctx, coord, query, 1, int(r.limit))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s, limit %d: cluster ranks %+v, local index %+v", phase, r.limit, got, want)
					}
					if capped.Load() != r.capped || all.Load() != r.all {
						t.Errorf("%s, limit %d: %d ranked and %d all-partials queries, want %d and %d",
							phase, r.limit, capped.Load(), all.Load(), r.capped, r.all)
					}
					if r.capped == 1 && r.all == 0 && info.WirePartials != int(min(r.limit, 5)) {
						t.Errorf("%s, limit %d: %d partials crossed the wire, want node 0's %d hits",
							phase, r.limit, info.WirePartials, min(r.limit, 5))
					}
				}
			}
			// Node 0 holds 5 candidates: the stray trajectory and 1–4.
			check("stray", []struct{ limit, capped, all int64 }{
				{1, 1, 1}, {2, 1, 1}, {5, 1, 1}, {6, 1, 0}, {0, 0, 1},
			})
			fail.Store(false)
			retry := coord.Add
			if tc.upsert {
				retry = coord.Upsert
			}
			if err := retry(ctx, stray); err != nil {
				t.Fatal(err)
			}
			local.Upsert(stray)
			check("retried", []struct{ limit, capped, all int64 }{
				{1, 1, 0}, {2, 1, 0}, {5, 1, 0}, {6, 1, 0}, {0, 0, 1},
			})
			if got, want := totalPostings(t, coord), local.Stats().Postings; got != want {
				t.Errorf("the cluster holds %d postings, the local index %d", got, want)
			}
		})
	}
}
