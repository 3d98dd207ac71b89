package cluster

import (
	"context"
	"encoding/gob"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"geodabs/internal/core"
	"geodabs/internal/index"
	"geodabs/internal/rerank"
	"geodabs/internal/shard"
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

// TestMismatchedNodeReplyIsAnError: a node answering a query or a rerank
// with parallel slices of different lengths gets an error back, not an
// index-out-of-range panic in the coordinator's merge.
func TestMismatchedNodeReplyIsAnError(t *testing.T) {
	tr, q := testWorkload.Dataset.Trajectories[0], testWorkload.Queries[0]
	fake := startFakeNode(t, func(conn net.Conn) {
		enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
		for {
			var req request
			if dec.Decode(&req) != nil {
				return
			}
			resp := response{ // a mutation is acked; the other two ops read their own field
				Query:  &queryResponse{IDs: []uint32{uint32(tr.ID), 9}, Counts: []uint32{3}},
				Rerank: &rerankResponse{IDs: []uint32{uint32(tr.ID), 9}, Scores: []float64{1}},
			}
			if enc.Encode(&resp) != nil {
				return
			}
		}
	})
	ex := index.GeodabExtractor{Fingerprinter: core.MustFingerprinter(core.DefaultConfig())}
	coord, err := NewCoordinator(ex, shard.Strategy{PrefixBits: 16, Shards: 16, Nodes: 1}, []string{fake.Addr().String()}, WithRetainPoints())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx := context.Background()
	if err := coord.Add(ctx, tr); err != nil { // tr is now live, its points owned by node 0
		t.Fatal(err)
	}
	if _, _, err := coord.Search(ctx, q, 1, 10); err == nil || !strings.Contains(err.Error(), "partial counts") {
		t.Errorf("Search over a mismatched query reply = %v, want a partial counts error", err)
	}
	hits := []index.Result{{ID: tr.ID, Shared: 1}}
	if _, err := coord.Rerank(ctx, hits, q.Points, rerank.DTW, 1); err == nil || !strings.Contains(err.Error(), "rerank scores") {
		t.Errorf("Rerank over a mismatched rerank reply = %v, want a rerank scores error", err)
	}
}

// TestReplicaRedialsSilentPrimary: a primary that completes the full
// sync and then goes silent without closing — a half-open TCP connection
// seen from the replica — has broken its heartbeat promise; the replica
// must dial again rather than serve an ever-staler state for ever.
func TestReplicaRedialsSilentPrimary(t *testing.T) {
	syncs := make(chan struct{}, 16) // never blocks the fake: more than the dials one test sees
	primary := startFakeNode(t, func(conn net.Conn) {
		var req request
		if gob.NewDecoder(conn).Decode(&req) != nil || req.Op != opSync {
			return
		}
		if gob.NewEncoder(conn).Encode(&response{Sync: &syncResponse{}}) == nil {
			syncs <- struct{}{}
			swallow(conn) // silent, open, until the replica hangs up
		}
	})
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
