package cluster

// Node snapshot persistence: the compaction half of the durability
// story. A snapshot captures the node's full shard state; the write-ahead
// log segments sealed before the snapshot cut are then redundant and are
// deleted. Recovery loads the snapshot and replays whatever segments
// survive — epoch fencing makes the replay idempotent, so the crash
// windows around a snapshot (after the seal but before the rename, or
// after the rename but before the segment drop) both recover exactly.

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"geodabs/internal/wal"
	"geodabs/internal/wire"
)

const (
	// snapshotName is the snapshot file inside the node's WAL directory.
	snapshotName = "node.snap"
	// snapshotMagic ("GDNS" little-endian) and snapshotVersion frame the
	// file so recovery rejects foreign or future formats outright.
	// Version 2's body is the full sync's doc frames — each doc the
	// mutation record that recreates it; version 1's, a gob dump of the
	// same docs, is still read (snapshot_v1.go) so a node
	// whose directory predates version 2 recovers, and is never written.
	snapshotMagic   uint32 = 0x534e4447
	snapshotVersion        = 2
	// snapshotHeaderSize is magic, version, body length and body CRC-32C.
	snapshotHeaderSize = 13
)

var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// Snapshot persists the node's current state and truncates the log
// segments it covers. The seal and the state copy happen under the
// exclusive apply lock, so the snapshot holds exactly the mutations of
// the sealed segments; the slow disk write happens after the lock is
// released, concurrent with new mutations landing in the fresh segment.
// No-op for nodes running without a write-ahead log.
func (n *Node) Snapshot() error {
	if n.wal == nil {
		return nil
	}
	n.snapMu.Lock()
	defer n.snapMu.Unlock()
	n.applyMu.Lock()
	//geodabs:vet-ignore snapshot barrier: the seal must fence every append so the snapshot covers exactly the sealed segments
	boundary, err := n.wal.Seal()
	if err != nil {
		n.applyMu.Unlock()
		return err
	}
	n.mu.RLock()
	docs := n.syncDocs()
	n.mu.RUnlock()
	n.applyMu.Unlock()
	// ID order makes a snapshot's bytes a function of the state alone.
	slices.SortFunc(docs, func(a, b wal.Record) int { return cmp.Compare(a.ID, b.ID) })
	raw, err := encodeSnapshot(docs)
	if err != nil {
		return err
	}
	if err := writeSnapshot(filepath.Join(n.walDir, snapshotName), raw); err != nil {
		return err
	}
	return n.wal.DropBefore(boundary)
}

// maybeSnapshot kicks off a background snapshot when the log has grown
// past the configured threshold. Single flight: while one snapshot runs,
// growth checks are no-ops.
func (n *Node) maybeSnapshot() {
	if n.wal == nil || n.snapshotBytes <= 0 {
		return
	}
	if n.wal.Stats().SizeBytes < n.snapshotBytes {
		return
	}
	if !n.snapshotting.CompareAndSwap(false, true) {
		return
	}
	n.snapWG.Add(1)
	go func() {
		defer n.snapWG.Done()
		defer n.snapshotting.Store(false)
		// Best effort: a failed background snapshot just leaves the log
		// long; the next growth check or the final Close snapshot retries.
		n.Snapshot()
	}()
}

// encodeSnapshot renders a version 2 snapshot file: the 13-byte header
// (magic, version, body length, body CRC-32C, little-endian), then one
// doc frame per doc — the bytes a full sync sends after its header.
func encodeSnapshot(docs []wal.Record) ([]byte, error) {
	raw := make([]byte, snapshotHeaderSize, 4096)
	var err error
	for i := range docs {
		if raw, err = appendDocFrame(raw, &docs[i]); err != nil {
			return nil, fmt.Errorf("cluster: encode snapshot: %w", err)
		}
	}
	body := raw[snapshotHeaderSize:]
	if uint64(len(body)) > 1<<32-1 {
		return nil, errors.New("cluster: encode snapshot: body exceeds 4 GiB")
	}
	binary.LittleEndian.PutUint32(raw[0:4], snapshotMagic)
	raw[4] = snapshotVersion
	binary.LittleEndian.PutUint32(raw[5:9], uint32(len(body)))
	binary.LittleEndian.PutUint32(raw[9:13], crc32.Checksum(body, snapshotCRC))
	return raw, nil
}

// writeSnapshot atomically replaces path with raw: temp file in the same
// directory, fsync, rename, directory fsync. A crash at any point leaves
// either the old snapshot or the new one, never a torn mix.
func writeSnapshot(path string, raw []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("cluster: snapshot temp: %w", err)
	}
	_, err = f.Write(raw)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cluster: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cluster: install snapshot: %w", err)
	}
	// Sync the directory so the rename itself survives a crash; a
	// snapshot that vanishes with its truncated WAL segments loses
	// acked mutations, so a failed directory fsync must fail the
	// snapshot rather than pass silently.
	if err := wal.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("cluster: sync snapshot dir: %w", err)
	}
	return nil
}

// loadSnapshot populates the node's in-memory state from the snapshot
// file in dir, if one exists. Called once at startup, before the WAL
// replay and before the listener exists, so no locking is needed.
func (n *Node) loadSnapshot(dir string) error {
	raw, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("cluster: read snapshot: %w", err)
	}
	return decodeSnapshot(raw, n.shardState.install)
}

// decodeSnapshot checks a snapshot file's header and CRC and hands each
// doc of its body to fn, stopping at fn's first error.
func decodeSnapshot(raw []byte, fn func(*wal.Record) error) error {
	if len(raw) < snapshotHeaderSize {
		return fmt.Errorf("cluster: snapshot truncated (%d bytes)", len(raw))
	}
	if m := binary.LittleEndian.Uint32(raw[0:4]); m != snapshotMagic {
		return fmt.Errorf("cluster: snapshot bad magic %#x", m)
	}
	version := raw[4]
	size := binary.LittleEndian.Uint32(raw[5:9])
	sum := binary.LittleEndian.Uint32(raw[9:13])
	body := raw[snapshotHeaderSize:]
	if uint64(len(body)) != uint64(size) {
		return fmt.Errorf("cluster: snapshot body %d bytes, header says %d", len(body), size)
	}
	if got := crc32.Checksum(body, snapshotCRC); got != sum {
		return fmt.Errorf("cluster: snapshot CRC mismatch")
	}
	switch version {
	case 1:
		return decodeSnapshotV1(body, fn)
	case snapshotVersion:
	default:
		return fmt.Errorf("cluster: snapshot version %d unsupported", version)
	}
	r := bytes.NewReader(body)
	var frame []byte
	var resp response
	for {
		p, err := wire.ReadFrameInto(r, frame, maxFrame)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("cluster: snapshot frame: %w", err)
		}
		frame = p
		if err := resp.decode(p); err != nil {
			return fmt.Errorf("cluster: snapshot doc: %w", err)
		}
		if resp.Kind != opSyncDoc {
			return fmt.Errorf("cluster: snapshot holds a %s frame", resp.Kind)
		}
		if err := fn(resp.Doc); err != nil {
			return err
		}
	}
}
