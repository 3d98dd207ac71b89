package cluster

// Replica side of log shipping: a read replica dials its primary,
// performs a full sync (a snapshot of the shard state plus the primary's
// compaction watermark), then tails the live mutation stream, applying
// each event through the same epoch-fenced apply the primary used. The
// replica's state therefore tracks the primary's exactly, stream
// position by stream position — including tombstone fences, which is
// what makes replaying a stale mutation produce the same (non-)effect on
// both sides. Any stream failure — connection loss, a primary gone
// silent, falling behind the primary's backlog — tears the tap down and
// the loop reconnects with a fresh full sync after a backoff.

import (
	"fmt"
	"net"
	"time"

	"geodabs/internal/wal"
	"geodabs/internal/wire"
)

const (
	replDialTimeout  = 2 * time.Second
	replReconnectMin = 50 * time.Millisecond
	replReconnectMax = 2 * time.Second
	// replStreamTimeout is how long a replication connection may stay
	// silent — mid-stream, or mid-full-sync — before the reader gives its
	// peer up for dead. The primary promises a heartbeat every
	// replHeartbeatInterval, so a few missed in a row mean a half-open
	// connection — a primary that vanished without a RST — which no read
	// would otherwise ever notice. Directory recovery's full syncs are
	// bounded by it too.
	replStreamTimeout = 4 * replHeartbeatInterval
)

// replicationLoop keeps the replica synced to its primary until the node
// closes. Reconnects use exponential backoff, reset after any attempt
// that got as far as installing a full sync.
func (n *Node) replicationLoop() {
	defer n.replWG.Done()
	backoff := replReconnectMin
	for {
		select {
		case <-n.closing:
			return
		default:
		}
		if n.syncOnce() {
			backoff = replReconnectMin
		} else if backoff *= 2; backoff > replReconnectMax {
			backoff = replReconnectMax
		}
		select {
		case <-time.After(backoff):
		case <-n.closing:
			return
		}
	}
}

// syncOnce performs one full sync + stream-tail session against the
// primary. It returns once the connection dies (for any reason),
// reporting whether a full sync was installed.
func (n *Node) syncOnce() bool {
	conn, err := net.DialTimeout("tcp", n.primaryAddr, replDialTimeout)
	if err != nil {
		return false
	}
	defer conn.Close()
	// Unblock the stream decoder when the node shuts down.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-n.closing:
			conn.Close()
		case <-stop:
		}
	}()
	f := wire.NewConn(conn, maxFrame)
	if f.SendFrame(appendRequest(f.BeginFrame(), &request{Op: opSync})) != nil {
		return false
	}
	st := newShardState()
	watermark, err := readSync(f, st.install)
	if err != nil {
		return false
	}
	n.installSync(st, watermark)
	n.fullSyncs.Add(1)
	var resp response
	for {
		if nextFrame(f, &resp) != nil || (resp.Kind != opEvent && resp.Kind != opHeartbeat) {
			return true // stream over, silent or garbled; reconnect with a fresh full sync
		}
		n.applyEvent(&resp.Event)
	}
}

// readSync reads a full sync off f — the header, then the doc frames it
// announces — handing each doc to fn, and returns the sync's watermark.
func readSync(f *wire.Conn, fn func(*wal.Record) error) (uint64, error) {
	var resp response
	if err := nextFrame(f, &resp); err != nil {
		return 0, err
	}
	switch resp.Kind {
	case opSync:
	case opError:
		return 0, fmt.Errorf("cluster: node error: %s", resp.Err)
	default:
		return 0, fmt.Errorf("cluster: node answered a sync request with a %s frame", resp.Kind)
	}
	hdr := resp.Sync
	for i := 0; i < hdr.Docs; i++ {
		if err := nextFrame(f, &resp); err != nil {
			return 0, err
		}
		if resp.Kind != opSyncDoc {
			return 0, fmt.Errorf("cluster: sync doc %d of %d is a %s frame", i+1, hdr.Docs, resp.Kind)
		}
		if err := fn(resp.Doc); err != nil {
			return 0, err
		}
	}
	return hdr.Watermark, nil
}

// nextFrame reads the next frame of a replication connection into resp.
// Every read gets replStreamTimeout: a primary promises a heartbeat well
// within it, and a peer that stops sending mid-sync is as dead as one
// gone silent mid-stream.
func nextFrame(f *wire.Conn, resp *response) error {
	if err := f.NetConn().SetReadDeadline(time.Now().Add(replStreamTimeout)); err != nil {
		return err
	}
	p, err := f.ReadFrame()
	if err != nil {
		return err
	}
	return resp.decode(p)
}

// installSync atomically replaces the replica's state with a full sync's.
// Queries racing the swap see either the old or the new state, never a
// mix.
func (n *Node) installSync(st shardState, watermark uint64) {
	n.mu.Lock()
	n.shardState = st
	n.compactedBelow.Store(watermark)
	n.mu.Unlock()
	n.advanceStable(watermark)
}

// applyEvent applies one replication stream event. A mutation runs
// through the identical epoch-fenced apply as on the primary; heartbeats
// (and the watermark piggybacked on every event) advance the replica's
// stable epoch and drive tombstone compaction at exactly the stream
// position where the primary compacted.
func (n *Node) applyEvent(ev *replEvent) {
	if ev.Op == 0 {
		n.compact(ev.Watermark)
	} else {
		n.apply(&ev.Record)
	}
	n.advanceStable(ev.Watermark)
}

// advanceStable raises the replica's stable epoch to w if it is ahead —
// the epoch through which the replicated state is proven complete.
func (n *Node) advanceStable(w uint64) {
	for {
		cur := n.stableEpoch.Load()
		if w <= cur || n.stableEpoch.CompareAndSwap(cur, w) {
			return
		}
	}
}
