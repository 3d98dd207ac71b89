// Package wal implements the shard nodes' write-ahead mutation log: an
// append-only sequence of length-prefixed, CRC-framed mutation records
// spread over rolling segment files, with group-committed fsync.
//
// Durability model. Every mutation a node applies is appended to the log
// before it touches the in-memory index, so a crash loses at most the
// appends the sync policy had not yet flushed. With SyncEvery=1 (the
// default) an Append returns only after its record — and, thanks to
// group commit, every record batched with it — is fsynced: one Fsync is
// amortized across all appends that arrived while the previous sync was
// in flight. With SyncEvery=N>1 appends return after the buffered write
// and a background flusher syncs every SyncInterval or every N records,
// whichever comes first (the Redis appendfsync-everysec shape): faster,
// bounded loss.
//
// Recovery. Open scans every segment in log order, verifying each
// record's CRC. A record that fails the check — or runs past the end of
// the file — in the final segment is a torn tail from a crash mid-write:
// the segment is truncated to the last good record and the log continues
// from there. A final segment shorter than its header (a crash between
// segment creation and the header fsync) holds no records and is deleted
// and recreated. A bad record in any earlier segment is real corruption
// and fails Open. Replay streams the surviving records to the caller in
// append order; the node's epoch fencing makes re-applying records that
// a snapshot already covers a no-op, so replay never needs to know where
// the snapshot cut off.
//
// Compaction. The log does not interpret records; the owner compacts by
// snapshotting its state, calling Seal to roll to a fresh segment, and
// DropBefore to delete the sealed segments the snapshot now covers. See
// docs/durability.md for the byte-level format.
package wal

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"geodabs/internal/geo"
	"geodabs/internal/wire"
)

// Op discriminates mutation records.
type Op uint8

const (
	// OpAdd records a trajectory's postings routed to the node.
	OpAdd Op = 1
	// OpDelete records a posting withdrawal (a tombstone at the epoch).
	OpDelete Op = 2
	// OpAddPoints is OpAdd plus the trajectory's retained raw points —
	// written when the node is the trajectory's point owner under
	// WithPointRetention. A separate op (rather than optional trailing
	// bytes on OpAdd) keeps logs written before point retention strictly
	// decodable: DecodeRecord rejects trailing bytes, and an OpAdd record
	// never carries points.
	OpAddPoints Op = 3
)

// Record is one mutation of one node's shard — exactly the information
// the node needs to apply it, which makes it the one shape a mutation
// travels in: the coordinator builds it, the node logs it and applies
// it, and the node's replicas receive it. Epoch is the
// coordinator-assigned fencing key: a node ignores a record at or below
// the epoch of the last mutation it applied for the ID. An add replaces
// whatever the node held for the ID; a delete needs no term list — the
// node tracks the terms it owns per ID — and leaves a tombstone at Epoch
// to fence stale adds until the coordinator's compaction watermark
// passes it.
//
// Card is the trajectory's total fingerprint cardinality |G| — across all
// nodes, not just the terms routed here — replicated so the node can
// threshold-prune query candidates without a round trip to the
// coordinator's directory. Points travel only in the record sent to the
// trajectory's point owner when the cluster retains points: that one
// node stores the raw trajectory beside its postings so exact rerank can
// run node-side, and raw points cross the wire once per mutation.
type Record struct {
	Op     Op
	Epoch  uint64
	ID     uint32
	Card   uint32      // adds only: the trajectory's total |G|
	Terms  []uint32    // adds only: the terms routed to this node
	Points []geo.Point // OpAddPoints only: the retained raw trajectory
}

// Options configures a Log. The zero value gets defaults.
type Options struct {
	// SyncEvery is how many appended records may accumulate before an
	// fsync. 1 (the default) syncs every append — group commit still
	// amortizes one fsync across concurrent appenders. Larger values
	// return from Append after the buffered write and leave syncing to
	// the background flusher: faster, and a crash loses at most the
	// unsynced window.
	SyncEvery int
	// SyncInterval bounds how stale unsynced records can get when
	// SyncEvery > 1. Default 100ms.
	SyncInterval time.Duration
	// SegmentBytes is the size past which the active segment is sealed
	// and a fresh one started. Default 16 MiB.
	SegmentBytes int64
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.SyncEvery <= 0 {
		out.SyncEvery = 1
	}
	if out.SyncInterval <= 0 {
		out.SyncInterval = 100 * time.Millisecond
	}
	if out.SegmentBytes <= 0 {
		out.SegmentBytes = 16 << 20
	}
	return out
}

// Stats is a point-in-time summary of the log, for metrics exposition.
type Stats struct {
	// SizeBytes is the total size of all segment files, Segments their
	// count (including the active one), Records the records appended or
	// replayed over the log's lifetime in this process.
	SizeBytes int64
	Segments  int
	Records   uint64
	// Syncs counts fsyncs issued; LastSync is the duration of the most
	// recent one — the group-commit latency floor.
	Syncs    uint64
	LastSync time.Duration
}

// ErrClosed reports an Append on a closed (or killed) log.
var ErrClosed = errors.New("wal: closed")

const (
	segmentMagic   = 0x4c574447 // "GDWL"
	segmentVersion = 1
	segmentHdrSize = 5
	recordHdrSize  = 8 // length uint32 + crc32c uint32
	// maxRecordBytes bounds a record's decoded length: a length prefix
	// beyond it means a corrupt or torn header, not a real record.
	maxRecordBytes = 64 << 20
	segmentSuffix  = ".seg"
	segmentPrefix  = "wal-"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// segmentName renders the canonical file name of segment seq.
func segmentName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", segmentPrefix, seq, segmentSuffix)
}

// parseSegmentName inverts segmentName, reporting ok=false for foreign
// files.
func parseSegmentName(name string) (seq uint64, ok bool) {
	if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
		return 0, false
	}
	hexpart := strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentSuffix)
	if len(hexpart) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(hexpart, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// segmentInfo is the in-memory ledger of one sealed or active segment.
type segmentInfo struct {
	seq   uint64
	bytes int64
}

// segmentFile is what the writer needs from the active segment. It is an
// *os.File in production; tests substitute fault-injecting wrappers to
// exercise the torn-write recovery paths.
type segmentFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Log is a write-ahead mutation log over a directory of segment files.
// Append is safe for concurrent use; Seal, DropBefore, Replay, Stats and
// Close may run concurrently with appends.
type Log struct {
	dir  string
	opts Options

	reqs chan appendReq

	// writer-goroutine state (untouched outside it after start, except
	// under stopped coordination in Seal/Close).
	mu       sync.Mutex // guards the fields below and file rotation
	segments []segmentInfo
	active   segmentFile
	activeSz int64
	unsynced int // records written but not yet fsynced
	// failed latches the log unusable after an error that leaves on-disk
	// state unreconcilable with the in-memory ledger (a torn write that
	// could not be truncated away, or a failed fsync — the kernel may
	// already have dropped the dirty pages, so retrying cannot restore
	// durability). Every subsequent Append is rejected with it.
	failed error

	records  atomic.Uint64
	syncs    atomic.Uint64
	lastSync atomic.Int64 // nanoseconds

	closing   chan struct{}
	closeOnce sync.Once
	writerWG  sync.WaitGroup
	killed    atomic.Bool
}

// appendReq is one Append call waiting for the writer loop: the encoded
// payloads and the channel its durability ack arrives on.
type appendReq struct {
	payloads [][]byte
	done     chan error
}

// Open opens (or creates) the log in dir, scanning every segment in
// order, truncating a torn tail off the final segment, and positioning
// appends after the last good record. Records already in the log are not
// loaded into memory — stream them with Replay before the first Append.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSegmentName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })

	l := &Log{
		dir:     dir,
		opts:    opts,
		reqs:    make(chan appendReq),
		closing: make(chan struct{}),
	}
	for i, seq := range seqs {
		last := i == len(seqs)-1
		size, n, err := l.scanSegment(seq, last)
		if err != nil {
			return nil, err
		}
		if last && size < segmentHdrSize {
			// A crash between segment creation and the header fsync left
			// the final segment without a complete header, so it provably
			// holds no records. It cannot be reused as-is: appends would
			// land in a headerless file the next Open rejects wholesale.
			// Delete it; the fresh-segment path below recreates it.
			if err := os.Remove(l.segmentPath(seq)); err != nil {
				return nil, fmt.Errorf("wal: remove headerless segment %s: %w", segmentName(seq), err)
			}
			continue
		}
		l.segments = append(l.segments, segmentInfo{seq: seq, bytes: size})
		l.records.Add(n)
	}
	// Open (or create) the active segment: the last surviving one, or a
	// fresh segment — at the deleted headerless tail's own sequence, so
	// sequence numbers never move backwards across restarts, or at 1 for
	// a brand-new log.
	var seq uint64 = 1
	if n := len(seqs); n > 0 {
		seq = seqs[n-1]
	}
	if n := len(l.segments); n > 0 {
		seq = l.segments[n-1].seq
		f, err := os.OpenFile(l.segmentPath(seq), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.active = f
		l.activeSz = l.segments[n-1].bytes
	} else {
		if err := l.openFreshSegment(seq); err != nil {
			return nil, err
		}
	}
	l.writerWG.Add(1)
	go l.writeLoop()
	return l, nil
}

func (l *Log) segmentPath(seq uint64) string {
	return filepath.Join(l.dir, segmentName(seq))
}

// openFreshSegment creates segment seq with its header and makes it the
// active segment. Callers must ensure no active segment is open.
func (l *Log) openFreshSegment(seq uint64) error {
	// O_APPEND (matching the reopen path in Open) keeps every write at
	// the true EOF even after a torn write is truncated away — without
	// it the file offset would sit past EOF and the next write would
	// leave a zero-filled hole recovery reads as a torn tail.
	f, err := os.OpenFile(l.segmentPath(seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var hdr [segmentHdrSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], segmentMagic)
	hdr[4] = segmentVersion
	if _, err := f.Write(hdr[:]); err != nil {
		_ = f.Close() // the header write error is the one worth reporting
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // the header fsync error is the one worth reporting
		return fmt.Errorf("wal: %w", err)
	}
	// Until its directory is synced a crash can drop the new file, and the
	// records acked in it: a failed directory fsync latches the log.
	if err := SyncDir(l.dir); err != nil {
		_ = f.Close() // the directory fsync error is the one worth reporting
		l.failed = fmt.Errorf("wal: fsync dir: %w", err)
		return l.failed
	}
	l.active = f
	l.activeSz = segmentHdrSize
	l.segments = append(l.segments, segmentInfo{seq: seq, bytes: segmentHdrSize})
	return nil
}

// SyncDir fsyncs the directory dir, so that a file created or renamed in
// it keeps its entry across a crash: a file's own fsync makes its
// contents durable, not the name that reaches them.
func SyncDir(dir string) error {
	if testHookSyncDir != nil {
		return testHookSyncDir(dir)
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return cmp.Or(d.Sync(), d.Close())
}

// testHookSyncDir, when set by a test, stands in for SyncDir.
var testHookSyncDir func(dir string) error

// scanSegment validates segment seq record by record, returning the
// byte offset after the last good record and how many records it holds.
// In the final segment a bad or truncated record is a torn tail: the
// file is truncated to the last good offset. Anywhere else it is
// corruption and an error.
func (l *Log) scanSegment(seq uint64, last bool) (size int64, records uint64, err error) {
	path := l.segmentPath(seq)
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	good, n, scanErr := scanRecords(f, nil)
	if scanErr != nil {
		if !last {
			return 0, 0, fmt.Errorf("wal: segment %s: %w", segmentName(seq), scanErr)
		}
		// Torn tail on the crash segment: drop it.
		if err := os.Truncate(path, good); err != nil {
			return 0, 0, fmt.Errorf("wal: truncate torn tail of %s: %w", segmentName(seq), err)
		}
	}
	return good, n, nil
}

// scanRecords walks a segment stream, checking each record's framing,
// CRC and encoding, and hands each decoded record to fn, when fn is not
// nil. It returns the offset after the last valid record, the record
// count, and a non-nil error if the segment ends in anything but a clean
// record boundary, or if fn returned one.
func scanRecords(r io.Reader, fn func(*Record) error) (good int64, records uint64, err error) {
	var hdr [segmentHdrSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("short segment header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != segmentMagic {
		return 0, 0, fmt.Errorf("bad segment magic %#x", m)
	}
	if hdr[4] != segmentVersion {
		return 0, 0, fmt.Errorf("unsupported segment version %d", hdr[4])
	}
	good = segmentHdrSize
	var rh [recordHdrSize]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(r, rh[:]); err != nil {
			if err == io.EOF {
				return good, records, nil // clean end
			}
			return good, records, fmt.Errorf("torn record header")
		}
		length := binary.LittleEndian.Uint32(rh[0:4])
		crc := binary.LittleEndian.Uint32(rh[4:8])
		if length == 0 || length > maxRecordBytes {
			return good, records, fmt.Errorf("implausible record length %d", length)
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(r, payload); err != nil {
			return good, records, fmt.Errorf("torn record payload")
		}
		if crc32.Checksum(payload, crcTable) != crc {
			return good, records, fmt.Errorf("record CRC mismatch")
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			return good, records, fmt.Errorf("undecodable record: %w", err)
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return good, records, err
			}
		}
		records++
		good += recordHdrSize + int64(length)
	}
}

// AppendRecord renders a record payload (no framing) onto buf: op,
// epoch, id, then for adds the card, term count, and zigzag-delta-encoded
// terms — ascending term slices (the common case: they come from bitmap
// iteration) cost one or two bytes per term. OpAddPoints appends the
// points in internal/wire's little-endian point form (count, then each
// point's lat/lon as raw float64 bits), so replayed coordinates are
// bit-identical to what the coordinator shipped. The cluster's mutate
// requests and replication events carry these same bytes, so a mutation
// has one byte form from coordinator to log to replica.
func AppendRecord(buf []byte, r *Record) []byte {
	buf = append(buf, byte(r.Op))
	buf = binary.AppendUvarint(buf, r.Epoch)
	buf = binary.AppendUvarint(buf, uint64(r.ID))
	if r.Op == OpAdd || r.Op == OpAddPoints {
		buf = binary.AppendUvarint(buf, uint64(r.Card))
		buf = binary.AppendUvarint(buf, uint64(len(r.Terms)))
		prev := int64(0)
		for _, t := range r.Terms {
			delta := int64(t) - prev
			buf = binary.AppendVarint(buf, delta)
			prev = int64(t)
		}
	}
	if r.Op == OpAddPoints {
		buf = wire.AppendPoints(buf, r.Points)
	}
	return buf
}

// DecodeRecord inverts AppendRecord, reading through internal/wire's
// bounds-checked decoder. It accepts exactly the canonical forms: a
// delete carries no terms and an OpAdd no points, so neither can be
// smuggled past the log.
func DecodeRecord(p []byte) (*Record, error) {
	d := wire.NewDecoder(p)
	r := &Record{Op: Op(d.Byte()), Epoch: d.Uvarint(), ID: d.Uint32("record id")}
	switch r.Op {
	case OpDelete:
	case OpAdd, OpAddPoints:
		r.Card = d.Uint32("record card")
		// A term delta costs at least one byte: a count beyond the bytes
		// remaining is rejected before anything is allocated from it.
		r.Terms = make([]uint32, d.Count(1))
		prev := int64(0)
		for i := range r.Terms {
			if prev += d.Varint(); prev < 0 || prev > math.MaxUint32 {
				d.Fail(errors.New("wal: term out of range"))
				break
			}
			r.Terms[i] = uint32(prev)
		}
		if r.Op == OpAddPoints {
			r.Points = d.Points(nil)
		}
	default:
		d.Fail(fmt.Errorf("wal: unknown record op %d", r.Op))
	}
	if err := d.Done("record"); err != nil {
		return nil, err
	}
	return r, nil
}

// Replay streams every record in the log, in append order, to fn,
// checking each as Open's scan did. It reads the segment files directly,
// so it must run before the first Append (the node's recovery path). A
// non-nil error from fn aborts the replay and is returned, wrapped with
// the segment's name.
func (l *Log) Replay(fn func(*Record) error) error {
	l.mu.Lock()
	segs := make([]segmentInfo, len(l.segments))
	copy(segs, l.segments)
	l.mu.Unlock()
	for _, seg := range segs {
		if err := l.replaySegment(seg, fn); err != nil {
			return fmt.Errorf("wal: replay segment %s: %w", segmentName(seg.seq), err)
		}
	}
	return nil
}

func (l *Log) replaySegment(seg segmentInfo, fn func(*Record) error) error {
	f, err := os.Open(l.segmentPath(seg.seq))
	if err != nil {
		return err
	}
	defer f.Close()
	// Only the validated prefix is replayed; anything past it is a tail
	// that scanSegment already truncated (or bytes appended after Replay
	// started, which the caller contract excludes).
	_, _, err = scanRecords(io.LimitReader(f, seg.bytes), fn)
	return err
}

// Append logs one or more records and returns when the sync policy is
// satisfied: with SyncEvery=1, after the records are fsynced (group
// commit batches concurrent appenders into one sync); with larger
// SyncEvery, after the buffered write.
func (l *Log) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	payloads := make([][]byte, len(recs))
	for i := range recs {
		payloads[i] = AppendRecord(make([]byte, 0, 16+5*len(recs[i].Terms)+16*len(recs[i].Points)), &recs[i])
	}
	req := appendReq{payloads: payloads, done: make(chan error, 1)}
	select {
	case l.reqs <- req:
	case <-l.closing:
		return ErrClosed
	}
	// Once the request is accepted, the writer guarantees exactly one ack
	// on done — a commit result, or ErrClosed from the Kill drain — so
	// block on it alone: racing l.closing here could report ErrClosed for
	// a record that committed durably.
	return <-req.done
}

// writeLoop is the single goroutine that owns the active segment: it
// batches whatever appends are pending (group commit), writes them,
// syncs per policy, acks, and rolls segments past the size threshold.
func (l *Log) writeLoop() {
	defer l.writerWG.Done()
	flushTick := time.NewTicker(l.opts.SyncInterval)
	defer flushTick.Stop()
	for {
		select {
		case req := <-l.reqs:
			batch := []appendReq{req}
			// Gather everything already queued: these arrived while the
			// previous batch was being written/synced and share this
			// batch's single fsync.
		drain:
			for {
				select {
				case more := <-l.reqs:
					batch = append(batch, more)
				default:
					break drain
				}
			}
			l.commit(batch)
		case <-flushTick.C:
			l.backgroundSync()
		case <-l.closing:
			// Drain requests that won the send race with Close, then
			// stop. After Kill nothing more may reach the disk — fail
			// the stragglers instead, as a real crash would have.
			for {
				select {
				case req := <-l.reqs:
					if l.killed.Load() {
						req.done <- ErrClosed
						continue
					}
					l.commit([]appendReq{req})
				default:
					return
				}
			}
		}
	}
}

// commit writes one batch, syncs it per policy, and acks every append.
func (l *Log) commit(batch []appendReq) {
	l.mu.Lock()
	err := l.failed
	var n int
	var frame [recordHdrSize]byte
	for _, req := range batch {
		for _, p := range req.payloads {
			if err != nil {
				break
			}
			binary.LittleEndian.PutUint32(frame[0:4], uint32(len(p)))
			binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(p, crcTable))
			if _, werr := l.active.Write(frame[:]); werr != nil {
				err = fmt.Errorf("wal: write: %w", werr)
				break
			}
			if _, werr := l.active.Write(p); werr != nil {
				err = fmt.Errorf("wal: write: %w", werr)
				break
			}
			l.activeSz += int64(recordHdrSize + len(p))
			l.segments[len(l.segments)-1].bytes = l.activeSz
			n++
		}
	}
	// Records fully written before a failure stay in the log (their
	// callers see the error, but at-least-once is fine — epoch fencing
	// makes re-application a no-op), so they still need syncing and
	// counting.
	l.unsynced += n
	l.records.Add(uint64(n))
	if err == nil {
		if l.opts.SyncEvery == 1 || l.unsynced >= l.opts.SyncEvery {
			err = l.syncLocked()
		}
		if err == nil && l.activeSz >= l.opts.SegmentBytes {
			err = l.rollLocked()
		}
	} else if l.failed == nil {
		// A partial record write (e.g. ENOSPC mid-payload) leaves torn
		// frame bytes past activeSz; later appends written after them
		// would be unreachable to recovery, which stops scanning at the
		// torn record. Cut the file back to the last good boundary; if
		// even that fails, latch the log failed so no later append can
		// land beyond bytes we cannot account for.
		//geodabs:vet-ignore torn-write repair must run under l.mu before any later append lands past the bad bytes
		if terr := l.active.Truncate(l.activeSz); terr != nil {
			l.failed = fmt.Errorf("wal: failed (torn write not truncatable: %v): %w", terr, err)
		}
	}
	l.mu.Unlock()
	for _, req := range batch {
		req.done <- err
	}
}

// syncLocked fsyncs the active segment, latching the log failed if the
// fsync fails. Callers hold l.mu.
func (l *Log) syncLocked() error {
	if l.failed != nil {
		return l.failed
	}
	if l.unsynced == 0 {
		return nil
	}
	start := time.Now()
	if err := l.active.Sync(); err != nil {
		l.failed = fmt.Errorf("wal: fsync: %w", err)
		return l.failed
	}
	l.lastSync.Store(int64(time.Since(start)))
	l.syncs.Add(1)
	l.unsynced = 0
	return nil
}

// backgroundSync is the SyncInterval flusher for SyncEvery > 1.
func (l *Log) backgroundSync() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.killed.Load() {
		return
	}
	l.syncLocked() // best effort; the next commit surfaces a sticky error
}

// rollLocked seals the active segment (flush, sync, close) and opens the
// next one. Callers hold l.mu.
func (l *Log) rollLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	next := l.segments[len(l.segments)-1].seq + 1
	return l.openFreshSegment(next)
}

// Seal forces a roll: the active segment is flushed, synced, closed, and
// a fresh segment becomes active. It returns the fresh segment's
// sequence number — every record appended before Seal lives in a segment
// below it, which is exactly the DropBefore bound a snapshot needs.
// Callers must ensure no Append is in flight (the node holds its apply
// lock exclusively while snapshotting).
func (l *Log) Seal() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.killed.Load() {
		return 0, ErrClosed
	}
	if err := l.rollLocked(); err != nil {
		return 0, err
	}
	return l.segments[len(l.segments)-1].seq, nil
}

// DropBefore deletes every sealed segment with a sequence below seq —
// log truncation after a snapshot made them redundant. The active
// segment is never dropped.
func (l *Log) DropBefore(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.segments[:0]
	var firstErr error
	for i, seg := range l.segments {
		if seg.seq >= seq || i == len(l.segments)-1 {
			kept = append(kept, seg)
			continue
		}
		if err := os.Remove(l.segmentPath(seg.seq)); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("wal: drop segment: %w", err)
			kept = append(kept, seg)
		}
	}
	l.segments = kept
	return firstErr
}

// Stats summarizes the log for metrics exposition.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	var size int64
	for _, seg := range l.segments {
		size += seg.bytes
	}
	segs := len(l.segments)
	l.mu.Unlock()
	return Stats{
		SizeBytes: size,
		Segments:  segs,
		Records:   l.records.Load(),
		Syncs:     l.syncs.Load(),
		LastSync:  time.Duration(l.lastSync.Load()),
	}
}

// Close flushes and syncs pending appends and closes the active segment.
// Appends racing Close either commit durably or fail with ErrClosed.
func (l *Log) Close() error {
	var err error
	l.closeOnce.Do(func() {
		close(l.closing)
		l.writerWG.Wait()
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.killed.Load() {
			return
		}
		if serr := l.syncLocked(); serr != nil {
			err = serr
		}
		if cerr := l.active.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("wal: %w", cerr)
		}
	})
	return err
}

// Kill abandons the log without flushing or syncing — the in-process
// stand-in for a crash: anything the sync policy had not yet flushed is
// lost, exactly as it would be to a power cut. For crash tests.
func (l *Log) Kill() {
	l.closeOnce.Do(func() {
		l.killed.Store(true)
		close(l.closing)
		l.writerWG.Wait()
		l.mu.Lock()
		defer l.mu.Unlock()
		//geodabs:vet-ignore crash simulation: discarding the close error is the point
		l.active.Close() // releases the fd; OS discards nothing already written
	})
}
