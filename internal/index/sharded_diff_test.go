package index

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"geodabs/internal/trajectory"
)

// shardCountsUnderTest covers the single-shard fast path, the smallest
// real fan-out, two wider ones, and — on a machine with more than eight
// cores — one wide enough to use every helper token the process holds.
func shardCountsUnderTest() []int {
	counts := []int{1, 2, 4, 8}
	if g := ceilPow2(runtime.GOMAXPROCS(0)); g > 8 {
		counts = append(counts, g)
	}
	return counts
}

// buildShardedFrom mirrors a one-shard index's reference contents into a
// Sharded index with the given shard count.
func buildShardedFrom(t testing.TB, reference map[trajectory.ID][]uint32, shards int) *Sharded {
	t.Helper()
	s := NewSharded(stubExtractor{}, shards)
	for id, set := range reference {
		if err := s.insert(id, set, nil); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestShardedMatchesInverted is the tentpole differential: the same
// corpus in one Inverted shard and in Sharded indexes of several shard
// counts, driven with random queries across range semantics, result caps
// and distance cutoffs — rankings must be byte-identical, and the
// candidate count (a partition of the same multiset) must agree too.
func TestShardedMatchesInverted(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	flat, reference := buildRandomIndex(t, rng, 3000)
	var shardeds []*Sharded
	for _, n := range shardCountsUnderTest() {
		shardeds = append(shardeds, buildShardedFrom(t, reference, n))
	}
	for q := 0; q < 200; q++ {
		set := randomSet(rng, 60, 500)
		maxDistance := rng.Float64()
		limit := 0
		if rng.Intn(2) == 0 {
			limit = 1 + rng.Intn(20)
		}
		want, wantStats, err := searchSet(flat, set, maxDistance, limit)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range shardeds {
			got, stats, err := searchSet(s, set, maxDistance, limit)
			if err != nil {
				t.Fatal(err)
			}
			equalResults(t, "sharded vs inverted", got, want)
			if stats.Candidates != wantStats.Candidates {
				t.Fatalf("shards=%d: candidates %d, want %d (shards must partition the candidate multiset)",
					s.NumShards(), stats.Candidates, wantStats.Candidates)
			}
		}
	}
}

// TestShardedTiesAcrossTheCut pins the merge of per-shard top-k lists
// where it is easiest to get wrong: hits at one distance, in different
// shards, on both sides of position k. Each shard ranks its own top-k, so
// the ID tiebreak across shards is decided only by the merge.
func TestShardedTiesAcrossTheCut(t *testing.T) {
	span := func(lo, hi uint32) []uint32 {
		var terms []uint32
		for v := lo; v <= hi; v++ {
			terms = append(terms, v)
		}
		return terms
	}
	// Against the query 0..9: ID 12 at distance 0.2; IDs 4, 5, 6 and 7
	// all at 2/3 from shared counts 5, 4, 6 and 5; ID 3 at 0.8.
	reference := map[trajectory.ID][]uint32{
		12: termSet(span(0, 7)...),
		4:  termSet(append(span(0, 4), span(100, 104)...)...),
		5:  termSet(append(span(0, 3), 110, 111)...),
		6:  termSet(append(span(0, 5), span(120, 127)...)...),
		7:  termSet(append(span(5, 9), span(130, 134)...)...),
		3:  termSet(8, 9),
	}
	query := termSet(span(0, 9)...)
	flat := buildShardedFrom(t, reference, 1)
	for _, n := range []int{2, 4} {
		sharded := buildShardedFrom(t, reference, n)
		for id := trajectory.ID(4); id < 7; id++ {
			if shardIndex(uint32(id), sharded.mask) == shardIndex(uint32(id+1), sharded.mask) {
				t.Fatalf("shards=%d: tied IDs %d and %d share a shard", n, id, id+1)
			}
		}
		for limit := 0; limit <= 6; limit++ {
			for _, maxDistance := range []float64{0.7, 1} {
				want := bruteForceSearch(reference, query, maxDistance, limit)
				got, _, err := searchSet(sharded, query, maxDistance, limit)
				if err != nil {
					t.Fatal(err)
				}
				equalResults(t, "ties across the cut vs brute", got, want)
				got, _, err = searchSet(flat, query, maxDistance, limit)
				if err != nil {
					t.Fatal(err)
				}
				equalResults(t, "ties across the cut, one shard vs brute", got, want)
			}
		}
	}
}

// TestShardedMatchesInvertedAfterMutations runs the same differential
// after interleaved deletes and upserts, so shard routing of mutations
// cannot silently diverge from the one-shard index.
func TestShardedMatchesInvertedAfterMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	flat, reference := buildRandomIndex(t, rng, 2000)
	sharded := buildShardedFrom(t, reference, 4)

	ids := make([]trajectory.ID, 0, len(reference))
	for id := range reference {
		ids = append(ids, id)
	}
	// Delete a third, upsert (via delete+re-add of a fresh set) another
	// third, on both engines.
	for i, id := range ids {
		switch i % 3 {
		case 0:
			flat.Delete(id)
			sharded.Delete(id)
			delete(reference, id)
		case 1:
			set := randomSet(rng, 60, 500)
			flat.Delete(id)
			sharded.Delete(id)
			if err := flat.insert(id, set, nil); err != nil {
				t.Fatal(err)
			}
			if err := sharded.insert(id, set, nil); err != nil {
				t.Fatal(err)
			}
			reference[id] = set
		}
	}
	for q := 0; q < 100; q++ {
		set := randomSet(rng, 60, 500)
		want, _, err := searchSet(flat, set, 0.9, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := searchSet(sharded, set, 0.9, 10)
		if err != nil {
			t.Fatal(err)
		}
		equalResults(t, "post-mutation", got, want)
		equalResults(t, "post-mutation vs brute", got, bruteForceSearch(reference, set, 0.9, 10))
	}
}

// TestShardedWideQuery pins a query of more than 65535 terms on the
// fanned-out path against both the one-shard index and brute force,
// with one document whose shared count passes 16 bits inside its shard.
func TestShardedWideQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	flat := NewSharded(stubExtractor{}, 1)
	sharded := NewSharded(stubExtractor{}, 4)
	reference := make(map[trajectory.ID][]uint32)
	// Documents drawn from a wide universe so the wide query overlaps them.
	for i := 0; i < 300; i++ {
		id := trajectory.ID(i)
		var terms []uint32
		for n := 0; n < 30+rng.Intn(60); n++ {
			terms = append(terms, rng.Uint32()%90000)
		}
		if len(terms) == 0 {
			terms = append(terms, uint32(i))
		}
		set := termSet(terms...)
		if err := flat.insert(id, set, nil); err != nil {
			t.Fatal(err)
		}
		if err := sharded.insert(id, set, nil); err != nil {
			t.Fatal(err)
		}
		reference[id] = set
	}
	var query, huge []uint32
	for term := uint32(0); term < 70000; term++ {
		query = append(query, term)
		if term < 66000 {
			huge = append(huge, term)
		}
	}
	for _, ix := range []*Sharded{flat, sharded} {
		if err := ix.insert(1000, huge, nil); err != nil {
			t.Fatal(err)
		}
	}
	reference[1000] = huge
	for _, limit := range []int{0, 5, 50} {
		want, _, err := searchSet(flat, query, 0.999, limit)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := searchSet(sharded, query, 0.999, limit)
		if err != nil {
			t.Fatal(err)
		}
		equalResults(t, "wide sharded vs inverted", got, want)
		equalResults(t, "wide sharded vs brute", got, bruteForceSearch(reference, query, 0.999, limit))
	}
}

// TestShardedConcurrentMutateAndSearch churns Upsert/Delete on many
// goroutines while searches fan out, under -race. Results cannot be
// compared to a reference mid-churn; instead every emitted result must
// satisfy the ranking invariants (sorted by the contract, distance within
// the cutoff, limit respected).
func TestShardedConcurrentMutateAndSearch(t *testing.T) {
	s := NewSharded(stubExtractor{}, 4)
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 500; i++ {
		set := randomSet(rng, 40, 300)
		set = termSet(append(set, uint32(i))...)
		if err := s.insert(trajectory.ID(i), set, nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := trajectory.ID(rng.Intn(500))
				if rng.Intn(3) == 0 {
					s.Delete(id)
				} else {
					set := randomSet(rng, 40, 300)
					set = termSet(append(set, uint32(id))...)
					s.Delete(id)
					_ = s.insert(id, set, nil)
				}
			}
		}(int64(100 + w))
	}
	searchRng := rand.New(rand.NewSource(35))
	for q := 0; q < 300; q++ {
		set := randomSet(searchRng, 40, 300)
		const maxDistance, limit = 0.95, 10
		results, _, err := searchSet(s, set, maxDistance, limit)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) > limit {
			t.Fatalf("got %d results over limit %d", len(results), limit)
		}
		for i, r := range results {
			if r.Distance > maxDistance {
				t.Fatalf("result %d distance %v over cutoff", i, r.Distance)
			}
			if i > 0 && resultLess(r, results[i-1]) {
				t.Fatalf("results out of order at %d: %+v before %+v", i, results[i-1], r)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// FuzzShardedParity fuzzes corpus shape, query shape, shard count,
// distance cutoff and limit, requiring sharded rankings byte-identical
// to the one-shard index and to brute force.
func FuzzShardedParity(f *testing.F) {
	f.Add(int64(1), uint8(50), uint8(2), uint8(90), uint8(10))
	f.Add(int64(2), uint8(200), uint8(4), uint8(50), uint8(0))
	f.Add(int64(3), uint8(10), uint8(8), uint8(100), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, docs, shards, distPct, limit uint8) {
		rng := rand.New(rand.NewSource(seed))
		nDocs := int(docs)%256 + 1
		nShards := int(shards)%16 + 1
		maxDistance := float64(distPct%101) / 100
		flat := NewSharded(stubExtractor{}, 1)
		sharded := NewSharded(stubExtractor{}, nShards)
		reference := make(map[trajectory.ID][]uint32)
		for i := 0; i < nDocs; i++ {
			id := trajectory.ID(rng.Uint32() % 10000)
			if _, dup := reference[id]; dup {
				continue
			}
			set := randomSet(rng, 30, 200)
			if len(set) == 0 {
				set = []uint32{uint32(id)}
			}
			if err := flat.insert(id, set, nil); err != nil {
				t.Fatal(err)
			}
			if err := sharded.insert(id, set, nil); err != nil {
				t.Fatal(err)
			}
			reference[id] = set
		}
		query := randomSet(rng, 30, 200)
		want, _, err := searchSet(flat, query, maxDistance, int(limit))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := searchSet(sharded, query, maxDistance, int(limit))
		if err != nil {
			t.Fatal(err)
		}
		equalResults(t, "fuzz sharded vs inverted", got, want)
		equalResults(t, "fuzz sharded vs brute", got,
			bruteForceSearch(reference, query, maxDistance, int(limit)))
	})
}

// FuzzShardedSnapshot fuzzes raw snapshot bytes through the loader at two
// shard counts; it must reject or accept without panicking, and an
// accepted load must leave a consistent engine (Len equals the number of
// scannable docs). The committed v2 and v3 snapshots seed the corpus.
func FuzzShardedSnapshot(f *testing.F) {
	s := NewSharded(stubExtractor{}, 2)
	set := []uint32{1, 99}
	if err := s.insert(5, set, nil); err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if _, err := s.WriteTo(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	// The doc's bitmap claiming 0xbebebebe chunks: sized from that count
	// unchecked, its load once ran the process out of memory.
	one := NewSharded(stubExtractor{}, 1)
	if err := one.insert(5, set, nil); err != nil {
		f.Fatal(err)
	}
	var huge bytes.Buffer
	if _, err := one.WriteTo(&huge); err != nil {
		f.Fatal(err)
	}
	at := bytes.Index(huge.Bytes(), []byte("GDBM")) + 5 // past the bitmap's magic and version
	copy(huge.Bytes()[at:], []byte{0xbe, 0xbe, 0xbe, 0xbe})
	f.Add(huge.Bytes())
	hdr := make([]byte, 9)
	binary.LittleEndian.PutUint32(hdr[0:4], indexMagic)
	hdr[4] = indexVersionV3
	binary.LittleEndian.PutUint32(hdr[5:9], 1000000) // absurd shard count
	f.Add(hdr)
	for _, name := range []string{"v2.snap", "v3.snap"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, eng := range []*Sharded{NewSharded(stubExtractor{}, 4), NewSharded(stubExtractor{}, 1)} {
			if _, err := eng.ReadFrom(bytes.NewReader(data)); err != nil {
				continue
			}
			docs := 0
			eng.ScanDocs(func(trajectory.ID, []uint32, int) bool {
				docs++
				return true
			})
			if docs != eng.Len() {
				t.Fatalf("loaded engine inconsistent: Len %d, scanned %d", eng.Len(), docs)
			}
		}
	})
}
