package wal

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// collect replays a freshly opened log at dir and returns its records.
func collect(t *testing.T, dir string, opts Options) []Record {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	var out []Record
	if err := l.Replay(func(r *Record) error {
		out = append(out, *r)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func randRecord(rng *rand.Rand, epoch uint64) Record {
	if rng.Intn(3) == 0 {
		return Record{Op: OpDelete, Epoch: epoch, ID: uint32(rng.Intn(50))}
	}
	terms := make([]uint32, rng.Intn(20))
	t := uint32(rng.Intn(100))
	for i := range terms {
		terms[i] = t
		t += uint32(1 + rng.Intn(1000))
	}
	return Record{Op: OpAdd, Epoch: epoch, ID: uint32(rng.Intn(50)), Card: uint32(len(terms) + rng.Intn(10)), Terms: terms}
}

// TestAppendReplayRoundTrip: records come back byte-identical, in order,
// across a clean close.
func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	var want []Record
	for e := uint64(1); e <= 100; e++ {
		r := randRecord(rng, e)
		want = append(want, r)
		if err := l.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got := collect(t, dir, Options{})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed records differ: got %d, want %d", len(got), len(want))
	}
	// Empty term slices and nil term slices both round-trip as empty.
	if err := l.Append(Record{Op: OpAdd, Epoch: 1, ID: 1}); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
}

// TestTornTailTruncated: a truncated final record is detected by its CRC
// or short length, dropped, and the log stays appendable — not fatal.
func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []string{"header", "payload", "crc"} {
		t.Run(cut, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			var want []Record
			rng := rand.New(rand.NewSource(7))
			for e := uint64(1); e <= 20; e++ {
				r := randRecord(rng, e)
				want = append(want, r)
				if err := l.Append(r); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}
			l.Close()

			path := filepath.Join(dir, segmentName(1))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			switch cut {
			case "header":
				// Append a lone partial frame header.
				data = append(data, 0xAB, 0xCD)
			case "payload":
				// Append a frame whose payload is cut short.
				data = append(data, 0x40, 0, 0, 0, 1, 2, 3, 4, 0xFF)
			case "crc":
				// Flip a byte inside the final record's payload.
				data[len(data)-1] ^= 0x5A
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			wantN := len(want)
			if cut == "crc" {
				wantN-- // the corrupted final record is dropped
			}
			got := collect(t, dir, Options{})
			if !reflect.DeepEqual(got, want[:wantN]) {
				t.Fatalf("after %s tear: replayed %d records, want %d", cut, len(got), wantN)
			}

			// The log must accept appends after tail truncation and keep
			// the surviving prefix intact.
			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			extra := Record{Op: OpDelete, Epoch: 999, ID: 42}
			if err := l2.Append(extra); err != nil {
				t.Fatalf("Append after truncation: %v", err)
			}
			l2.Close()
			got = collect(t, dir, Options{})
			if !reflect.DeepEqual(got, append(append([]Record{}, want[:wantN]...), extra)) {
				t.Fatalf("append after truncation lost records")
			}
		})
	}
}

// TestMidSegmentCorruptionFatal: a bad record in a non-final segment is
// corruption, not a torn tail, and fails Open.
func TestMidSegmentCorruptionFatal(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for e := uint64(1); e <= 50; e++ {
		if err := l.Append(randRecord(rng, e)); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Stats().Segments; got < 2 {
		t.Fatalf("expected multiple segments, got %d", got)
	}
	l.Close()
	// Corrupt the first (sealed) segment's last payload byte.
	path := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{SegmentBytes: 256}); err == nil {
		t.Fatal("Open accepted a corrupt mid-log segment")
	}
}

// TestReplayChecksCRC: a record that rots between Open's scan and Replay
// — here one whose flipped bit still decodes, to other terms — fails the
// replay instead of reaching the caller.
func TestReplayChecksCRC(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Op: OpAdd, Epoch: 1, ID: 1, Card: 3, Terms: []uint32{100, 200, 300}}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if l, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	path := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x02 // the last term delta's final varint byte
	if _, err := DecodeRecord(data[segmentHdrSize+recordHdrSize:]); err != nil {
		t.Fatalf("the flipped record no longer decodes, so it tests nothing: %v", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := l.Replay(func(r *Record) error {
		t.Errorf("replayed a record whose CRC no longer matches: %+v", *r)
		return nil
	}); err == nil {
		t.Fatal("Replay accepted a record whose CRC no longer matches")
	}
}

// TestSegmentRollAndDrop: segments roll past the threshold; Seal +
// DropBefore reclaims everything the snapshot covers; the survivors
// replay exactly the post-seal suffix.
func TestSegmentRollAndDrop(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for e := uint64(1); e <= 60; e++ {
		if err := l.Append(randRecord(rng, e)); err != nil {
			t.Fatal(err)
		}
	}
	boundary, err := l.Seal()
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	var tail []Record
	for e := uint64(61); e <= 70; e++ {
		r := randRecord(rng, e)
		tail = append(tail, r)
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.DropBefore(boundary); err != nil {
		t.Fatalf("DropBefore: %v", err)
	}
	l.Close()
	got := collect(t, dir, Options{SegmentBytes: 512})
	if !reflect.DeepEqual(got, tail) {
		t.Fatalf("post-drop replay: got %d records, want the %d appended after Seal", len(got), len(tail))
	}
}

// TestConcurrentAppendGroupCommit: concurrent appenders all commit
// durably (SyncEvery=1) and every record survives replay; the fsync
// count stays well below the record count, proving group commit
// amortized them.
func TestConcurrentAppendGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r := Record{Op: OpAdd, Epoch: uint64(w*perWorker + i + 1), ID: uint32(w), Card: 3, Terms: []uint32{1, 2, 3}}
				if err := l.Append(r); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Records != workers*perWorker {
		t.Fatalf("Records = %d, want %d", st.Records, workers*perWorker)
	}
	if st.Syncs == 0 || st.Syncs > st.Records {
		t.Fatalf("Syncs = %d out of range (0, %d]", st.Syncs, st.Records)
	}
	l.Close()
	got := collect(t, dir, Options{})
	if len(got) != workers*perWorker {
		t.Fatalf("replayed %d records, want %d", len(got), workers*perWorker)
	}
}

// TestCrashRecoveryProperty: apply a random interleaving of add/delete
// records, hard-kill the log (no clean close) at a random point, replay,
// and assert (a) the survivors are exactly a prefix of the appended
// sequence, and (b) with SyncEvery=1 every acked record survived — the
// state rebuilt from the replay is byte-identical to the reference built
// from the acked prefix.
func TestCrashRecoveryProperty(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		syncEvery := 1
		if seed%2 == 1 {
			syncEvery = 1 + rng.Intn(16) // relaxed mode: acks precede durability
		}
		l, err := Open(dir, Options{SyncEvery: syncEvery, SyncInterval: time.Hour, SegmentBytes: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		total := 20 + rng.Intn(200)
		killAt := rng.Intn(total)
		var acked []Record
		for e := 1; e <= total; e++ {
			r := randRecord(rng, uint64(e))
			if err := l.Append(r); err != nil {
				t.Fatalf("seed %d: Append: %v", seed, err)
			}
			acked = append(acked, r)
			if e-1 == killAt {
				break
			}
		}
		l.Kill()

		got := collect(t, dir, Options{})
		// (a) Prefix property: the log never reorders or invents records.
		if len(got) > len(acked) {
			t.Fatalf("seed %d: replayed %d records, only %d were appended", seed, len(got), len(acked))
		}
		if !reflect.DeepEqual(got, acked[:len(got)]) {
			t.Fatalf("seed %d: replayed records are not a prefix of the appended sequence", seed)
		}
		// (b) Durability property: with per-append sync, nothing acked is
		// lost.
		if syncEvery == 1 && len(got) != len(acked) {
			t.Fatalf("seed %d: SyncEvery=1 lost %d acked records", seed, len(acked)-len(got))
		}
	}
}

// TestRelaxedSyncLosesAtMostWindow: with SyncEvery=N, a kill loses less
// than N records plus the in-flight batch.
func TestRelaxedSyncLosesAtMostWindow(t *testing.T) {
	dir := t.TempDir()
	const n = 8
	l, err := Open(dir, Options{SyncEvery: n, SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	const total = 100
	for e := uint64(1); e <= total; e++ {
		if err := l.Append(Record{Op: OpDelete, Epoch: e, ID: uint32(e)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Kill()
	got := collect(t, dir, Options{})
	if len(got) < total-n {
		t.Fatalf("lost %d records, sync window is %d", total-len(got), n)
	}
}

// TestStats: sizes and counters reflect reality.
func TestStats(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(Record{Op: OpDelete, Epoch: 1, ID: 1}); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Segments != 1 || st.Records != 1 || st.Syncs == 0 || st.SizeBytes <= segmentHdrSize {
		t.Fatalf("implausible stats: %+v", st)
	}
	fi, err := os.Stat(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != st.SizeBytes {
		t.Fatalf("SizeBytes = %d, file is %d", st.SizeBytes, fi.Size())
	}
}

// TestHeaderlessTailSegmentDiscarded: a crash between segment creation
// and the header fsync leaves a final segment shorter than its header.
// Open must not reuse it as-is — appends would land in a headerless file
// the next Open rejects wholesale, losing acked records. It holds no
// records, so Open deletes and recreates it.
func TestHeaderlessTailSegmentDiscarded(t *testing.T) {
	for _, tc := range []struct {
		name    string
		hdr     []byte
		prelude int // records appended (and expected to survive) before the crash artifact
	}{
		{"empty-only-segment", nil, 0},
		{"partial-header-only-segment", []byte{0x47, 0x44}, 0},
		{"empty-after-sealed", nil, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var want []Record
			crashSeq := uint64(1)
			if tc.prelude > 0 {
				l, err := Open(dir, Options{})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < tc.prelude; i++ {
					r := Record{Op: OpDelete, Epoch: uint64(i + 1), ID: uint32(i)}
					want = append(want, r)
					if err := l.Append(r); err != nil {
						t.Fatal(err)
					}
				}
				l.Close()
				crashSeq = 2
			}
			if err := os.WriteFile(filepath.Join(dir, segmentName(crashSeq)), tc.hdr, 0o644); err != nil {
				t.Fatal(err)
			}

			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("Open with headerless tail: %v", err)
			}
			extra := Record{Op: OpDelete, Epoch: 999, ID: 42}
			want = append(want, extra)
			if err := l.Append(extra); err != nil {
				t.Fatalf("Append: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			// The acked record must survive another Open — the pre-fix
			// failure mode was a headerless active segment whose records
			// the next Open silently discarded before Replay failed.
			if got := collect(t, dir, Options{}); !reflect.DeepEqual(got, want) {
				t.Fatalf("replay after headerless-tail recovery: got %d records, want %d", len(got), len(want))
			}
		})
	}
}

// flakySegment wraps the active segment file, failing operations on
// demand to exercise the writer's error recovery.
type flakySegment struct {
	segmentFile
	failWriteAfter int  // fail the write once this many more bytes have been written
	partialBytes   int  // bytes of the failing write that still reach the file
	armed          bool // one-shot write failure pending
	failTruncate   bool
	failSync       bool
}

var errInjected = errors.New("injected fault")

func (f *flakySegment) Write(p []byte) (int, error) {
	if f.armed {
		if len(p) <= f.failWriteAfter {
			f.failWriteAfter -= len(p)
			return f.segmentFile.Write(p)
		}
		f.armed = false
		n, _ := f.segmentFile.Write(p[:f.failWriteAfter+f.partialBytes])
		return n, errInjected
	}
	return f.segmentFile.Write(p)
}

func (f *flakySegment) Truncate(size int64) error {
	if f.failTruncate {
		return errInjected
	}
	return f.segmentFile.Truncate(size)
}

func (f *flakySegment) Sync() error {
	if f.failSync {
		return errInjected
	}
	return f.segmentFile.Sync()
}

// inject swaps the log's active segment for a flaky wrapper.
func inject(l *Log, mutate func(*flakySegment)) {
	l.mu.Lock()
	fs := &flakySegment{segmentFile: l.active}
	mutate(fs)
	l.active = fs
	l.mu.Unlock()
}

// TestTornWriteTruncated: a write that fails mid-payload (ENOSPC shape)
// leaves torn frame bytes in the active segment. The writer must cut
// them off before accepting more appends — otherwise recovery stops at
// the torn record and silently drops every later acked, fsynced record.
func TestTornWriteTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 5; i++ {
		r := Record{Op: OpAdd, Epoch: uint64(i + 1), ID: uint32(i), Card: 3, Terms: []uint32{1, 5, 9}}
		want = append(want, r)
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// Fail the next record's payload write after the frame header plus
	// two payload bytes have reached the file.
	inject(l, func(fs *flakySegment) {
		fs.armed = true
		fs.failWriteAfter = recordHdrSize
		fs.partialBytes = 2
	})
	if err := l.Append(Record{Op: OpAdd, Epoch: 6, ID: 6, Card: 3, Terms: []uint32{2, 4, 6}}); err == nil {
		t.Fatal("Append with injected write fault succeeded")
	}
	// The log stays usable, and the post-failure append must survive
	// recovery — it would be unreachable behind the torn frame otherwise.
	extra := Record{Op: OpDelete, Epoch: 7, ID: 7}
	want = append(want, extra)
	if err := l.Append(extra); err != nil {
		t.Fatalf("Append after torn write: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := collect(t, dir, Options{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after torn write: got %d records, want %d", len(got), len(want))
	}
}

// TestUntruncatableTornWriteLatchesFailure: if the post-error truncate
// also fails, the on-disk tail no longer matches the ledger and nothing
// more may be appended — the log must latch failed and reject every
// subsequent Append rather than write past bytes it cannot account for.
func TestUntruncatableTornWriteLatchesFailure(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inject(l, func(fs *flakySegment) {
		fs.armed = true
		fs.partialBytes = 2
		fs.failTruncate = true
	})
	if err := l.Append(Record{Op: OpDelete, Epoch: 1, ID: 1}); err == nil {
		t.Fatal("Append with injected write fault succeeded")
	}
	if err := l.Append(Record{Op: OpDelete, Epoch: 2, ID: 2}); err == nil {
		t.Fatal("Append on a latched-failed log succeeded")
	}
	l.Close()
}

// TestSyncErrorLatchesFailure: after a failed fsync the kernel may have
// dropped the dirty pages, so durability of everything unsynced is
// unknowable — the log must reject further appends instead of acking
// records whose predecessors may be gone.
func TestSyncErrorLatchesFailure(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inject(l, func(fs *flakySegment) { fs.failSync = true })
	if err := l.Append(Record{Op: OpDelete, Epoch: 1, ID: 1}); err == nil {
		t.Fatal("Append with failing fsync succeeded")
	}
	if err := l.Append(Record{Op: OpDelete, Epoch: 2, ID: 2}); err == nil {
		t.Fatal("Append on a latched-failed log succeeded")
	}
	l.Close()
}

// TestDirSyncErrorLatchesFailure: a segment made by a size roll keeps
// its directory entry across a crash only once the directory is synced,
// so a failed directory fsync must fail the roll and latch the log, as a
// failed segment fsync does.
func TestDirSyncErrorLatchesFailure(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 1}) // every append rolls
	if err != nil {
		t.Fatal(err)
	}
	testHookSyncDir = func(string) error { return errInjected }
	defer func() { testHookSyncDir = nil }()
	if err := l.Append(Record{Op: OpDelete, Epoch: 1, ID: 1}); !errors.Is(err, errInjected) {
		t.Fatalf("Append rolling past SegmentBytes with a failing directory fsync = %v, want the injected fault", err)
	}
	if err := l.Append(Record{Op: OpDelete, Epoch: 2, ID: 2}); !errors.Is(err, errInjected) {
		t.Fatalf("Append on a latched-failed log = %v, want the injected fault", err)
	}
	if _, err := l.Seal(); err == nil {
		t.Fatal("Seal on a latched-failed log succeeded")
	}
	l.Close()
}

// TestCorruptTermCountRejectedCheaply: a corrupt add record claiming an
// enormous term count must be rejected by bounds-checking against the
// payload size, not by attempting a giant allocation during scan.
func TestCorruptTermCountRejectedCheaply(t *testing.T) {
	payload := AppendRecord(nil, &Record{Op: OpAdd, Epoch: 1, ID: 1, Card: 1, Terms: []uint32{1}})
	// Rewrite the term-count varint (last two fields are count=1, delta).
	payload = payload[:len(payload)-2]
	payload = binary.AppendUvarint(payload, maxRecordBytes-1)
	if _, err := DecodeRecord(payload); err == nil {
		t.Fatal("DecodeRecord accepted a term count far beyond the payload size")
	}
}

// TestReopenContinuesSequence: records appended across process lifetimes
// (close + reopen) replay as one ordered sequence.
func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	var want []Record
	for round := 0; round < 3; round++ {
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			r := Record{Op: OpDelete, Epoch: uint64(round*10 + i + 1), ID: uint32(i)}
			want = append(want, r)
			if err := l.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, dir, Options{})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cross-reopen replay differs: got %d records, want %d", len(got), len(want))
	}
}
