package index

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"geodabs/internal/bitmap"
	"geodabs/internal/trajectory"
)

func TestIndexSnapshotRoundTrip(t *testing.T) {
	orig := newGeodabIndex(t)
	if err := orig.AddAll(context.Background(), testWorkload.Dataset, 8); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := orig.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	loaded := newGeodabIndex(t)
	if _, err := loaded.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != orig.Len() {
		t.Fatalf("loaded %d docs, want %d", loaded.Len(), orig.Len())
	}
	// Queries must be identical on the loaded index.
	for _, q := range testWorkload.Queries[:5] {
		want := search(t, orig, q, 1, 10)
		got := search(t, loaded, q, 1, 10)
		if len(got) != len(want) {
			t.Fatalf("result count %d vs %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("result %d: %+v vs %+v", i, got[i], want[i])
			}
		}
	}
	// Stats agree too (same docs, same postings).
	if g, w := loaded.Stats(), orig.Stats(); g.Terms != w.Terms || g.Postings != w.Postings {
		t.Errorf("stats diverge: %+v vs %+v", g, w)
	}
}

func TestIndexSnapshotReplacesContents(t *testing.T) {
	a := newGeodabIndex(t)
	if err := a.Add(testWorkload.Dataset.Trajectories[0]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := newGeodabIndex(t)
	if err := b.Add(testWorkload.Dataset.Trajectories[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 {
		t.Fatalf("loaded index has %d docs, want 1", b.Len())
	}
	if hasDoc(b, testWorkload.Dataset.Trajectories[1].ID) {
		t.Error("pre-existing contents should be replaced")
	}
	// The loaded index accepts further additions.
	if err := b.Add(testWorkload.Dataset.Trajectories[2]); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Errorf("Len after post-load add = %d", b.Len())
	}
}

func TestIndexSnapshotRejectsGarbage(t *testing.T) {
	tests := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad-magic", []byte{1, 2, 3, 4, 1, 0, 0, 0, 0}},
		{"bad-version", []byte{0x47, 0x44, 0x49, 0x58, 9, 0, 0, 0, 0}},
		{"truncated", func() []byte {
			ix := newGeodabIndex(t)
			if err := ix.Add(testWorkload.Dataset.Trajectories[0]); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := ix.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()[:buf.Len()-4]
		}()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ix := newGeodabIndex(t)
			if _, err := ix.ReadFrom(bytes.NewReader(tt.data)); err == nil {
				t.Error("ReadFrom should fail")
			}
		})
	}
}

// TestMutatedSnapshotRoundTrip is the delete → snapshot → ReadFrom
// acceptance path: a mutated index round-trips as exactly its live
// documents (deletes leave nothing behind), and the mutation epoch
// survives so snapshot lineages stay ordered.
func TestMutatedSnapshotRoundTrip(t *testing.T) {
	orig := newGeodabIndex(t)
	if err := orig.AddAll(context.Background(), testWorkload.Dataset, 8); err != nil {
		t.Fatal(err)
	}
	victims := []trajectory.ID{
		testWorkload.Dataset.Trajectories[0].ID,
		testWorkload.Dataset.Trajectories[3].ID,
		testWorkload.Dataset.Trajectories[9].ID,
	}
	for _, id := range victims {
		if !orig.Delete(id) {
			t.Fatalf("delete %d failed", id)
		}
	}
	orig.Upsert(testWorkload.Dataset.Trajectories[5]) // replacement rides along
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := newGeodabIndex(t)
	if _, err := loaded.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != orig.Len() {
		t.Fatalf("loaded %d docs, want %d", loaded.Len(), orig.Len())
	}
	if loaded.Epoch() != orig.Epoch() {
		t.Errorf("loaded epoch %d, want %d", loaded.Epoch(), orig.Epoch())
	}
	for _, id := range victims {
		if hasDoc(loaded, id) {
			t.Errorf("deleted trajectory %d resurrected by the snapshot", id)
		}
	}
	if g, w := loaded.Stats(), orig.Stats(); g.Terms != w.Terms || g.Postings != w.Postings {
		t.Errorf("stats diverge after mutated round-trip: %+v vs %+v", g, w)
	}
	for _, q := range testWorkload.Queries[:5] {
		want := search(t, orig, q, 1, 10)
		got := search(t, loaded, q, 1, 10)
		if len(got) != len(want) {
			t.Fatalf("result count %d vs %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("result %d: %+v vs %+v", i, got[i], want[i])
			}
		}
	}
}

// TestSnapshotCompatibility pins the on-disk formats by committed bytes:
// testdata/v2.snap was written by the v2 writer at the last commit that
// had one, testdata/v3.snap by an index of four shards (one section
// each), both over the first 24 workload trajectories with two deleted
// and one upserted. Each must load with the document count, epoch and
// rankings recorded when they were written.
func TestSnapshotCompatibility(t *testing.T) {
	want := [][]Result{
		{{1, 0.6521739130434783, 8}, {0, 0.75, 6}, {4, 0.8571428571428572, 4}, {2, 0.8928571428571429, 3}},
		{{18, 0.6, 6}, {15, 0.6666666666666667, 5}, {16, 0.7058823529411764, 5}, {19, 0.736842105263158, 5}, {22, 0.8214285714285714, 5}},
		{{22, 0.5714285714285714, 12}, {20, 0.6, 10}, {21, 0.7142857142857143, 8}, {23, 0.75, 7}, {15, 0.875, 3}},
	}
	for _, name := range []string{"v2.snap", "v3.snap"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		loaded := newGeodabIndex(t)
		if _, err := loaded.ReadFrom(bytes.NewReader(data)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if loaded.Len() != 22 || loaded.Epoch() != 28 {
			t.Errorf("%s: %d docs at epoch %d, want 22 at 28", name, loaded.Len(), loaded.Epoch())
		}
		for i, q := range testWorkload.Queries[:3] {
			equalResults(t, name, search(t, loaded, q, 1, 5), want[i])
		}
	}
}

// TestSnapshotRewriteKeepsDocumentBytes loads testdata/v3.snap, four
// sections, and writes it back as one: a document is kept as its terms in
// memory and serialized as a bitmap only on the way out, and every
// document's record — its ID and its set's bytes — must come out exactly
// as the file holds it.
func TestSnapshotRewriteKeepsDocumentBytes(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "v3.snap"))
	if err != nil {
		t.Fatal(err)
	}
	loaded := newGeodabIndex(t)
	if _, err := loaded.ReadFrom(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := loaded.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	want, got := docRecords(t, data), docRecords(t, out.Bytes())
	if len(want) != 22 || len(got) != len(want) {
		t.Fatalf("rewrite holds %d documents, the file %d; want 22 each", len(got), len(want))
	}
	for id, rec := range want {
		if !bytes.Equal(got[id], rec) {
			t.Errorf("doc %d: rewritten record % x, file's % x", id, got[id], rec)
		}
	}
}

// docRecords splits a v3 snapshot into its documents' records, ID bytes
// and set bytes, keyed by ID.
func docRecords(t *testing.T, data []byte) map[trajectory.ID][]byte {
	t.Helper()
	if len(data) < indexHeaderSize || data[4] != indexVersionV3 {
		t.Fatalf("not a v3 snapshot")
	}
	recs := make(map[trajectory.ID][]byte)
	off := indexHeaderSize
	for range binary.LittleEndian.Uint32(data[5:9]) {
		docs := binary.LittleEndian.Uint32(data[off:])
		off += 12
		for range docs {
			n, err := bitmap.New().ReadFrom(bytes.NewReader(data[off+4:]))
			if err != nil {
				t.Fatal(err)
			}
			recs[trajectory.ID(binary.LittleEndian.Uint32(data[off:]))] = data[off : off+4+int(n)]
			off += 4 + int(n)
		}
	}
	if off != len(data) {
		t.Fatalf("%d bytes past the last document", len(data)-off)
	}
	return recs
}

// TestSnapshotRejectsV1 pins the retirement of format v1 (no writer since
// PR 2): a v1 header fails with the unsupported-version error.
func TestSnapshotRejectsV1(t *testing.T) {
	v1 := []byte{0x47, 0x44, 0x49, 0x58, 1, 0, 0, 0, 0}
	_, err := newGeodabIndex(t).ReadFrom(bytes.NewReader(v1))
	if err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("v1 snapshot: err = %v, want unsupported version 1", err)
	}
}

func TestShardedSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	src := New(stubExtractor{}, false)
	reference := make(map[trajectory.ID][]uint32)
	for i := 0; i < 400; i++ {
		id := trajectory.ID(rng.Uint32() % 100000)
		if _, dup := reference[id]; dup {
			continue
		}
		set := randomSet(rng, 50, 400)
		set = termSet(append(set, uint32(id))...)
		if err := src.insert(id, set, nil); err != nil {
			t.Fatal(err)
		}
		reference[id] = set
	}
	src.Delete(trajectory.ID(0)) // exercise a non-trivial epoch
	delete(reference, trajectory.ID(0))
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if sections := binary.LittleEndian.Uint32(buf.Bytes()[5:9]); sections != 1 {
		t.Fatalf("snapshot written with %d sections, want 1", sections)
	}
	dst := New(stubExtractor{}, false)
	if _, err := dst.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != len(reference) {
		t.Fatalf("loaded Len = %d, want %d", dst.Len(), len(reference))
	}
	if dst.Epoch() != src.Epoch() {
		t.Fatalf("loaded Epoch = %d, want %d", dst.Epoch(), src.Epoch())
	}
	for range 20 {
		q := randomSet(rng, 50, 400)
		got, _, err := searchSet(dst, q, 0.95, 10)
		if err != nil {
			t.Fatal(err)
		}
		equalResults(t, "loaded", got, bruteForceSearch(reference, q, 0.95, 10))
	}
}

func TestShardedSnapshotReplacesContents(t *testing.T) {
	src := New(stubExtractor{}, false)
	if err := src.insert(1, []uint32{7}, nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dst := New(stubExtractor{}, false)
	if err := dst.insert(2, []uint32{9}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 1 || !hasDoc(dst, 1) || hasDoc(dst, 2) {
		t.Fatalf("load did not replace contents: len=%d", dst.Len())
	}
}

func TestShardedSnapshotRejectsDuplicate(t *testing.T) {
	// Hand-build a v3 snapshot whose two sections both carry ID 5: merging
	// the sections into the one engine must reject the second copy.
	set := bitmap.New()
	set.Add(1)
	var setBytes bytes.Buffer
	if _, err := set.WriteTo(&setBytes); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	hdr := make([]byte, 9)
	binary.LittleEndian.PutUint32(hdr[0:4], indexMagic)
	hdr[4] = indexVersionV3
	binary.LittleEndian.PutUint32(hdr[5:9], 2)
	snap.Write(hdr)
	for sec := 0; sec < 2; sec++ {
		var secHdr [12]byte
		binary.LittleEndian.PutUint32(secHdr[0:4], 1) // one doc
		binary.LittleEndian.PutUint64(secHdr[4:12], 1)
		snap.Write(secHdr[:])
		var idBuf [4]byte
		binary.LittleEndian.PutUint32(idBuf[:], 5)
		snap.Write(idBuf[:])
		snap.Write(setBytes.Bytes())
	}
	dst := New(stubExtractor{}, false)
	if _, err := dst.ReadFrom(bytes.NewReader(snap.Bytes())); err == nil {
		t.Fatal("duplicate ID across sections loaded without error")
	}
}

// TestShardedReloadIsAtomic loads two different snapshots in turn, over
// and over, while searches run: every ranking must be one that the first
// or the second corpus produces in full, never a mixture. Meaningful
// under -race.
func TestShardedReloadIsAtomic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	query := randomSet(rng, 60, 200)
	var snaps [2][]byte
	var want [2][]Result
	for c := range snaps {
		src := New(stubExtractor{}, false)
		reference := make(map[trajectory.ID][]uint32)
		// Both corpora use the same IDs with different sets, so a mixture
		// of the two is a plausible-looking third ranking.
		for id := trajectory.ID(0); id < 200; id++ {
			set := randomSet(rng, 60, 200)
			set = termSet(append(set, uint32(id))...)
			if err := src.insert(id, set, nil); err != nil {
				t.Fatal(err)
			}
			reference[id] = set
		}
		var buf bytes.Buffer
		if _, err := src.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		snaps[c] = buf.Bytes()
		want[c] = bruteForceSearch(reference, query, 1, 0)
	}
	if slices.Equal(want[0], want[1]) {
		t.Fatal("the two corpora rank alike; the check is vacuous")
	}
	s := New(stubExtractor{}, false)
	if _, err := s.ReadFrom(bytes.NewReader(snaps[0])); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				got, _, err := searchSet(s, query, 1, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got, want[0]) && !slices.Equal(got, want[1]) {
					t.Error("a search overlapping a load ranked a mixture of the two corpora")
					return
				}
			}
		}()
	}
	for i := 1; i <= 60; i++ {
		if _, err := s.ReadFrom(bytes.NewReader(snaps[i%2])); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}

// FuzzIndexSnapshot fuzzes raw snapshot bytes through the loader; it must
// reject or accept without panicking, and an accepted load must leave a
// consistent engine (Len equals the number of scannable docs). The
// committed v2 and v3 snapshots seed the corpus.
func FuzzIndexSnapshot(f *testing.F) {
	s := New(stubExtractor{}, false)
	if err := s.insert(5, []uint32{1, 99}, nil); err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if _, err := s.WriteTo(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	// The doc's bitmap claiming 0xbebebebe chunks: sized from that count
	// unchecked, its load once ran the process out of memory.
	huge := bytes.Clone(seed.Bytes())
	at := bytes.Index(huge, []byte("GDBM")) + 5 // past the bitmap's magic and version
	copy(huge[at:], []byte{0xbe, 0xbe, 0xbe, 0xbe})
	f.Add(huge)
	hdr := make([]byte, 9)
	binary.LittleEndian.PutUint32(hdr[0:4], indexMagic)
	hdr[4] = indexVersionV3
	binary.LittleEndian.PutUint32(hdr[5:9], 1000000) // absurd section count
	f.Add(hdr)
	for _, name := range []string{"v2.snap", "v3.snap"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		eng := New(stubExtractor{}, false)
		if _, err := eng.ReadFrom(bytes.NewReader(data)); err != nil {
			return
		}
		docs := 0
		eng.ScanDocs(func(trajectory.ID, []uint32, int) bool {
			docs++
			return true
		})
		if docs != eng.Len() {
			t.Fatalf("loaded engine inconsistent: Len %d, scanned %d", eng.Len(), docs)
		}
	})
}
