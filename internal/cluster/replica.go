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
	"encoding/gob"
	"net"
	"time"
)

const (
	replDialTimeout  = 2 * time.Second
	replReconnectMin = 50 * time.Millisecond
	replReconnectMax = 2 * time.Second
	// replStreamTimeout is how long the stream may stay silent before the
	// replica gives the primary up for dead. The primary promises a
	// heartbeat every replHeartbeatInterval, so a few missed in a row mean
	// a half-open connection — a primary that vanished without a RST —
	// which no read would otherwise ever notice.
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
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	if err := enc.Encode(&request{Op: opSync}); err != nil {
		return false
	}
	var resp response
	if err := dec.Decode(&resp); err != nil || resp.Err != "" || resp.Sync == nil {
		return false
	}
	n.installSync(resp.Sync)
	n.fullSyncs.Add(1)
	for {
		var ev replEvent
		if err := conn.SetReadDeadline(time.Now().Add(replStreamTimeout)); err != nil {
			return true
		}
		if err := dec.Decode(&ev); err != nil {
			return true // stream over or silent; reconnect with a fresh full sync
		}
		n.applyEvent(&ev)
	}
}

// installSync atomically replaces the replica's state with a full-sync
// snapshot. Queries racing the swap see either the old or the new state,
// never a mix.
func (n *Node) installSync(sync *syncResponse) {
	n.mu.Lock()
	n.installDocs(sync.Docs)
	n.compactedBelow.Store(sync.Watermark)
	n.mu.Unlock()
	n.advanceStable(sync.Watermark)
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
