package index

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"geodabs/internal/bitmap"
	"geodabs/internal/geo"
	"geodabs/internal/trajectory"
)

func TestNewShardedRoundsUpToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {7, 8}, {8, 8}, {9, 16}, {100, 128},
	} {
		if got := NewSharded(stubExtractor{}, tc.n).NumShards(); got != tc.want {
			t.Errorf("NewSharded(%d).NumShards() = %d, want %d", tc.n, got, tc.want)
		}
	}
	// n ≤ 0 is one shard, whatever GOMAXPROCS says.
	for _, n := range []int{0, -1} {
		if got := NewSharded(stubExtractor{}, n).NumShards(); got != 1 {
			t.Errorf("NewSharded(%d).NumShards() = %d, want 1", n, got)
		}
	}
}

// TestShardedMatchesInvertedWithoutHelpers runs the tentpole differential
// with no helper budget (GOMAXPROCS=1): every shard of every search is
// ranked on the calling goroutine, and rankings must not move.
func TestShardedMatchesInvertedWithoutHelpers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	TestShardedMatchesInverted(t)
}

func TestShardIndexPlacement(t *testing.T) {
	// Sequential IDs — the common ingest pattern — must spread across
	// shards rather than piling into shard 0 (the failure mode of a plain
	// low-bit modulo on hash-free placement).
	const shards = 8
	var counts [shards]int
	const ids = 10000
	for id := uint32(0); id < ids; id++ {
		si := shardIndex(id, shards-1)
		if si >= shards {
			t.Fatalf("shardIndex(%d) = %d out of range", id, si)
		}
		counts[si]++
	}
	for si, c := range counts {
		// A uniform spread puts ids/shards = 1250 in each; allow wide slack.
		if c < ids/shards/2 || c > ids/shards*2 {
			t.Errorf("shard %d holds %d of %d ids — placement is badly skewed: %v", si, c, ids, counts)
		}
	}
	// Placement is deterministic.
	for id := uint32(0); id < 100; id++ {
		if shardIndex(id, shards-1) != shardIndex(id, shards-1) {
			t.Fatal("shardIndex is not deterministic")
		}
	}
}

func TestShardedMutationsRouteToOneShard(t *testing.T) {
	s := NewSharded(stubExtractor{}, 4)
	rng := rand.New(rand.NewSource(11))
	sets := make(map[trajectory.ID][]uint32)
	for i := 0; i < 500; i++ {
		id := trajectory.ID(i)
		set := randomSet(rng, 40, 300)
		set = termSet(append(set, uint32(i))...) // never empty, always unique term
		if err := s.insert(id, set, nil); err != nil {
			t.Fatal(err)
		}
		sets[id] = set
	}
	if s.Len() != len(sets) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(sets))
	}
	// Each trajectory lives wholly in exactly one shard.
	for id := range sets {
		holders := 0
		for _, sh := range s.shards {
			if sh.docs[id] != nil {
				holders++
			}
		}
		if holders != 1 {
			t.Fatalf("trajectory %d held by %d shards, want exactly 1", id, holders)
		}
		if s.shardOf(id).docs[id] == nil {
			t.Fatalf("trajectory %d is not in its placement shard", id)
		}
	}
	// Shard lengths partition the corpus.
	sum := 0
	for _, sh := range s.shards {
		sum += sh.Len()
	}
	if sum != len(sets) {
		t.Fatalf("shard lengths sum to %d, want %d", sum, len(sets))
	}
	// Re-adding an ID fails — duplicates collide in their owning shard.
	if err := s.insert(3, nil, nil); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
	// Delete removes from the owning shard only.
	if !s.Delete(3) {
		t.Fatal("Delete(3) = false")
	}
	if s.Delete(3) {
		t.Fatal("second Delete(3) = true")
	}
	if s.Len() != len(sets)-1 {
		t.Fatalf("Len after delete = %d, want %d", s.Len(), len(sets)-1)
	}
}

func TestShardedEpochAggregates(t *testing.T) {
	s := NewSharded(stubExtractor{}, 4)
	if s.Epoch() != 0 {
		t.Fatalf("fresh Epoch = %d, want 0", s.Epoch())
	}
	last := uint64(0)
	for i := 0; i < 64; i++ {
		if err := s.insert(trajectory.ID(i), []uint32{uint32(i)}, nil); err != nil {
			t.Fatal(err)
		}
		if e := s.Epoch(); e <= last {
			t.Fatalf("Epoch did not advance: %d after %d", e, last)
		} else {
			last = e
		}
	}
	if last != 64 {
		t.Fatalf("Epoch after 64 inserts = %d, want 64", last)
	}
	s.Delete(0)
	if e := s.Epoch(); e != 65 {
		t.Fatalf("Epoch after delete = %d, want 65", e)
	}
}

func TestShardedStatsAggregates(t *testing.T) {
	s := NewSharded(stubExtractor{}, 4)
	rng := rand.New(rand.NewSource(12))
	postings := 0
	for i := 0; i < 200; i++ {
		set := randomSet(rng, 30, 10000) // sparse universe: terms rarely shared
		set = termSet(append(set, uint32(1000000+i))...)
		if err := s.insert(trajectory.ID(i), set, nil); err != nil {
			t.Fatal(err)
		}
		postings += len(set)
	}
	st := s.Stats()
	if st.Shards != 4 {
		t.Fatalf("Stats.Shards = %d, want 4", st.Shards)
	}
	if st.Trajectories != 200 {
		t.Fatalf("Stats.Trajectories = %d, want 200", st.Trajectories)
	}
	if st.Postings != postings {
		t.Fatalf("Stats.Postings = %d, want %d", st.Postings, postings)
	}
	if st.BitmapBytes <= 0 {
		t.Fatalf("Stats.BitmapBytes = %d, want > 0", st.BitmapBytes)
	}
	if got := NewSharded(stubExtractor{}, 1).Stats().Shards; got != 1 {
		t.Fatalf("one-shard Stats.Shards = %d, want 1", got)
	}
}

// onePointExtractor maps each point to one term so retention tests can
// drive Add/Upsert with real points.
type onePointExtractor struct{}

func (onePointExtractor) Extract(pts []geo.Point) []uint32 {
	var terms []uint32
	for _, p := range pts {
		terms = append(terms, uint32(p.Lat*1000)^uint32(p.Lon*1000)<<8)
	}
	return termSet(terms...)
}

func TestShardedPointRetention(t *testing.T) {
	s := NewSharded(onePointExtractor{}, 4, RetainPoints())
	pts := []geo.Point{{Lat: 1, Lon: 2}, {Lat: 3, Lon: 4}}
	if err := s.Add(&trajectory.Trajectory{ID: 7, Points: pts}); err != nil {
		t.Fatal(err)
	}
	if got := s.PointsOf(7); len(got) != 2 {
		t.Fatalf("PointsOf(7) = %v, want the 2 retained points", got)
	}
	pts2 := []geo.Point{{Lat: 5, Lon: 6}}
	s.Upsert(&trajectory.Trajectory{ID: 7, Points: pts2})
	if got := s.PointsOf(7); len(got) != 1 || got[0] != pts2[0] {
		t.Fatalf("PointsOf(7) after upsert = %v, want %v", got, pts2)
	}
	if s.Len() != 1 {
		t.Fatalf("Len after upsert = %d, want 1", s.Len())
	}
}

func TestShardedDeleteAll(t *testing.T) {
	s := NewSharded(stubExtractor{}, 4)
	var ids []trajectory.ID
	for i := 0; i < 300; i++ {
		id := trajectory.ID(i)
		if err := s.insert(id, []uint32{uint32(i % 50)}, nil); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Delete half of them plus some unknown IDs; the count reflects only
	// the indexed ones.
	batch := append([]trajectory.ID{9999, 8888}, ids[:150]...)
	n, err := s.DeleteAll(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if n != 150 {
		t.Fatalf("DeleteAll deleted %d, want 150", n)
	}
	if s.Len() != 150 {
		t.Fatalf("Len after DeleteAll = %d, want 150", s.Len())
	}
	// A cancelled context aborts without deleting everything it was given.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.DeleteAll(ctx, ids[150:]); err == nil {
		t.Fatal("DeleteAll with cancelled ctx returned nil error")
	}
}

func TestShardedAddAllRollsBackOnFailure(t *testing.T) {
	s := NewSharded(stubExtractor{}, 4)
	// Pre-seed an ID that the dataset will collide with.
	if err := s.insert(42, []uint32{1}, nil); err != nil {
		t.Fatal(err)
	}
	d := &trajectory.Dataset{}
	for i := 0; i < 100; i++ {
		d.Trajectories = append(d.Trajectories, &trajectory.Trajectory{
			ID: trajectory.ID(i), Points: []geo.Point{{Lat: 1, Lon: 1}},
		})
	}
	d.Trajectories = append(d.Trajectories, &trajectory.Trajectory{
		ID: 42, Points: []geo.Point{{Lat: 1, Lon: 1}},
	})
	if err := s.AddAll(context.Background(), d, 4); err == nil {
		t.Fatal("AddAll with duplicate ID succeeded")
	}
	if s.Len() != 1 {
		t.Fatalf("Len after failed AddAll = %d, want 1 (rolled back)", s.Len())
	}
	if !hasDoc(s, 42) {
		t.Fatal("pre-existing trajectory lost in rollback")
	}
}

func TestShardedScanDocs(t *testing.T) {
	s := NewSharded(stubExtractor{}, 4)
	want := make(map[trajectory.ID]int)
	for i := 0; i < 100; i++ {
		if err := s.insert(trajectory.ID(i), []uint32{uint32(i), uint32(i + 1000)}, nil); err != nil {
			t.Fatal(err)
		}
		want[trajectory.ID(i)] = 2
	}
	seen := make(map[trajectory.ID]int)
	s.ScanDocs(func(id trajectory.ID, set []uint32, card int) bool {
		seen[id] = card
		if len(set) != card {
			t.Fatalf("ScanDocs card %d != set cardinality %d", card, len(set))
		}
		return true
	})
	if len(seen) != len(want) {
		t.Fatalf("ScanDocs visited %d docs, want %d", len(seen), len(want))
	}
	for id, card := range want {
		if seen[id] != card {
			t.Fatalf("doc %d card %d, want %d", id, seen[id], card)
		}
	}
	// Early stop is honored across shard boundaries.
	visits := 0
	s.ScanDocs(func(trajectory.ID, []uint32, int) bool {
		visits++
		return visits < 10
	})
	if visits != 10 {
		t.Fatalf("ScanDocs visited %d docs after early stop, want 10", visits)
	}
}

func TestShardedSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	src := NewSharded(stubExtractor{}, 4)
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
	snapshot := buf.Bytes()

	queries := make([][]uint32, 20)
	for i := range queries {
		queries[i] = randomSet(rng, 50, 400)
	}
	check := func(t *testing.T, eng *Sharded) {
		t.Helper()
		if eng.Len() != len(reference) {
			t.Fatalf("loaded Len = %d, want %d", eng.Len(), len(reference))
		}
		if eng.Epoch() != src.Epoch() {
			t.Fatalf("loaded Epoch = %d, want %d", eng.Epoch(), src.Epoch())
		}
		for _, q := range queries {
			got, _, err := searchSet(eng, q, 0.95, 10)
			if err != nil {
				t.Fatal(err)
			}
			equalResults(t, "loaded", got, bruteForceSearch(reference, q, 0.95, 10))
		}
	}
	t.Run("v3-to-same-shard-count", func(t *testing.T) {
		dst := NewSharded(stubExtractor{}, 4)
		if _, err := dst.ReadFrom(bytes.NewReader(snapshot)); err != nil {
			t.Fatal(err)
		}
		check(t, dst)
	})
	t.Run("v3-rebalances-to-other-shard-count", func(t *testing.T) {
		dst := NewSharded(stubExtractor{}, 2)
		if _, err := dst.ReadFrom(bytes.NewReader(snapshot)); err != nil {
			t.Fatal(err)
		}
		check(t, dst)
		// Rebalance is by placement hash: every doc must be in its owning
		// shard, not wherever the snapshot section put it.
		dst.ScanDocs(func(id trajectory.ID, _ []uint32, _ int) bool {
			if dst.shardOf(id).docs[id] == nil {
				t.Fatalf("doc %d not in its placement shard after load", id)
			}
			return true
		})
	})
	t.Run("v3-flattens-into-one-shard", func(t *testing.T) {
		dst := NewSharded(stubExtractor{}, 1)
		if _, err := dst.ReadFrom(bytes.NewReader(snapshot)); err != nil {
			t.Fatal(err)
		}
		check(t, dst)
	})
}

func TestShardedSnapshotReplacesContents(t *testing.T) {
	src := NewSharded(stubExtractor{}, 2)
	if err := src.insert(1, []uint32{7}, nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dst := NewSharded(stubExtractor{}, 2)
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
	// Hand-build a v3 snapshot whose two shard sections both carry ID 5:
	// rebalancing routes both copies to the same target shard, where the
	// duplicate must be rejected at every shard count.
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
		var shHdr [12]byte
		binary.LittleEndian.PutUint32(shHdr[0:4], 1) // one doc
		binary.LittleEndian.PutUint64(shHdr[4:12], 1)
		snap.Write(shHdr[:])
		var idBuf [4]byte
		binary.LittleEndian.PutUint32(idBuf[:], 5)
		snap.Write(idBuf[:])
		snap.Write(setBytes.Bytes())
	}
	dst := NewSharded(stubExtractor{}, 2)
	if _, err := dst.ReadFrom(bytes.NewReader(snap.Bytes())); err == nil {
		t.Fatal("duplicate ID across shard sections loaded without error")
	}
	dstFlat := NewSharded(stubExtractor{}, 1)
	if _, err := dstFlat.ReadFrom(bytes.NewReader(snap.Bytes())); err == nil {
		t.Fatal("duplicate ID across shard sections flattened without error")
	}
}

// TestShardedReloadIsAtomic reloads two different snapshots over and over
// while searches fan out across four shards: every ranking must be one
// that the first or the second corpus produces in full. The shards of a
// search lock independently, so without the all-shards swap and the
// reload count a search could rank some shards of the old corpus with
// some of the new. Meaningful under -race.
func TestShardedReloadIsAtomic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	query := randomSet(rng, 60, 200)
	var snaps [2][]byte
	var want [2][]Result
	for c := range snaps {
		src := NewSharded(stubExtractor{}, 4)
		reference := make(map[trajectory.ID][]uint32)
		// Both corpora use the same IDs with different sets, so a mixture
		// of their shards is a plausible-looking third ranking.
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
	s := NewSharded(stubExtractor{}, 4)
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
					t.Error("a search overlapping a reload ranked a mixture of the two corpora")
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
