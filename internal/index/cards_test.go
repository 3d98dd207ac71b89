package index

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"geodabs/internal/trajectory"
)

// checkCardTable requires t to hold exactly the entries of model, and
// that probe clusters carry no stale entry an absent ID could match.
func checkCardTable(tb testing.TB, label string, t *CardTable, model map[uint32]int, absent []uint32) {
	tb.Helper()
	if t.n != len(model) {
		tb.Fatalf("%s: %d entries, want %d", label, t.n, len(model))
	}
	for id, want := range model {
		if got, ok := t.Get(id); !ok || got != want {
			tb.Fatalf("%s: get(%d) = %d, %v; want %d, true", label, id, got, ok, want)
		}
	}
	for _, id := range absent {
		if _, in := model[id]; in {
			continue
		}
		if got, ok := t.Get(id); ok {
			tb.Fatalf("%s: get(%d) = %d for an absent ID", label, id, got)
		}
	}
	if len(t.slots) != 0 && t.n*4 > len(t.slots)*3 {
		tb.Fatalf("%s: %d entries in %d slots", label, t.n, len(t.slots))
	}
}

// TestCardTableMatchesMap runs random set, delete and re-set streams
// against a map model. The IDs come from a small pool, the two extreme
// IDs included, so sets overwrite, deletes hit, and deletes land in the
// middle of the probe clusters the pool's collisions build; the stream
// grows the table through several doublings.
func TestCardTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		pool := []uint32{0, math.MaxUint32, 1, math.MaxUint32 - 1}
		for n := 4 + rng.Intn(600); len(pool) < n; {
			pool = append(pool, rng.Uint32())
		}
		var tab CardTable
		model := make(map[uint32]int)
		for op := 0; op < 3000; op++ {
			id := pool[rng.Intn(len(pool))]
			switch rng.Intn(3) {
			case 0, 1:
				card := rng.Intn(1 << 20)
				if rng.Intn(8) == 0 {
					card = []int{0, math.MaxUint32 - 1}[rng.Intn(2)]
				}
				tab.Set(id, card)
				model[id] = card
			default:
				_, want := model[id]
				if got := tab.Delete(id); got != want {
					t.Fatalf("trial %d op %d: delete(%d) = %v, want %v", trial, op, id, got, want)
				}
				delete(model, id)
			}
			if op%97 == 0 {
				checkCardTable(t, "stream", &tab, model, pool)
			}
		}
		checkCardTable(t, "stream end", &tab, model, pool)
		for id := range model {
			tab.Delete(id)
			delete(model, id)
			if len(model)%13 == 0 {
				checkCardTable(t, "drain", &tab, model, pool)
			}
		}
		checkCardTable(t, "empty", &tab, model, pool)
	}
}

// TestCardTableClusterDeletes builds one probe cluster that wraps past
// the end of the slots, out of IDs hashing to three nearby homes, then
// deletes from it in random order: every survivor must stay reachable,
// which holds only if backward shifting moves an entry into the gap
// whenever it may and never before its home.
func TestCardTableClusterDeletes(t *testing.T) {
	var tab CardTable
	for len(tab.slots) < 64 {
		tab.grow()
	}
	mask := len(tab.slots) - 1
	model := make(map[uint32]int)
	var ids []uint32
	for _, c := range []struct{ home, n int }{{mask - 2, 6}, {mask - 1, 3}, {0, 3}} {
		for id, n := uint32(0), 0; n < c.n; id++ {
			if tab.home(id) == c.home {
				if _, dup := model[id]; !dup {
					tab.Set(id, len(ids))
					model[id] = len(ids)
					ids = append(ids, id)
					n++
				}
			}
		}
	}
	if len(tab.slots) != mask+1 {
		t.Fatalf("the cluster grew the table to %d slots", len(tab.slots))
	}
	checkCardTable(t, "cluster", &tab, model, ids)
	rng := rand.New(rand.NewSource(5))
	for _, i := range rng.Perm(len(ids)) {
		id := ids[i]
		if !tab.Delete(id) {
			t.Fatalf("delete(%d) missed", id)
		}
		delete(model, id)
		checkCardTable(t, "cluster delete", &tab, model, ids)
		if tab.Delete(id) {
			t.Fatalf("delete(%d) hit twice", id)
		}
	}
}

// FuzzCardTable runs set, delete and get op streams against a map model.
// The table serves a shard's ranking walk and a cluster node's, so its
// edges are fuzzed: IDs 0 and math.MaxUint32 (the ID of an empty slot's
// bits), cards 0 and math.MaxUint32−1 (the largest it holds), growth
// from the empty table, and deletes out of probe clusters that wrap past
// the last slot. Each op is a tag byte, an ID selector byte and, for a
// set, two card bytes: a selector below 128 picks from a fixed pool, one
// from 128 picks an ID hashing to one of the last eight slots at the
// table's current size, so those IDs pile up into a wrapping cluster.
func FuzzCardTable(f *testing.F) {
	pool := []uint32{0, math.MaxUint32, 1, math.MaxUint32 - 1, 2, 0x9e3779b9, 1 << 31, 12345}
	set := func(sel byte, card uint16) []byte { return []byte{0, sel, byte(card), byte(card >> 8)} }
	var grow, wrap []byte
	for i := range 40 {
		grow = append(grow, set(byte(i%8), uint16(i))...)
		grow = append(grow, set(128+byte(i), 0xffff)...)
	}
	for i := range 24 {
		wrap = append(wrap, set(128+byte(i), uint16(i))...)
	}
	for _, i := range []byte{0, 9, 3, 17, 8, 1, 23, 16} {
		wrap = append(wrap, 1, 128+i, 2, 128+i)
	}
	f.Add(grow)
	f.Add(wrap)
	f.Add(append(set(0, 0), append(set(1, 0xffff), 2, 1, 1, 0, 2, 0, 1, 1)...))

	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab CardTable
		model := make(map[uint32]int)
		seen := slices.Clone(pool)
		// homed returns the k-th ID, counting from 1 << 20, whose home is
		// slot len(slots)−1−back, or false when the table is empty or too
		// big to search.
		homed := func(back, k int) (uint32, bool) {
			if len(tab.slots) == 0 || len(tab.slots) > 1<<10 {
				return 0, false
			}
			home := len(tab.slots) - 1 - back%len(tab.slots)
			for id := uint32(1 << 20); ; id++ {
				if tab.home(id) == home {
					if k == 0 {
						return id, true
					}
					k--
				}
			}
		}
		for op := 0; len(ops) >= 2; op++ {
			tag, sel := ops[0]%3, ops[1]
			ops = ops[2:]
			id := pool[int(sel)%len(pool)]
			if sel >= 128 {
				var ok bool
				if id, ok = homed(int(sel&7), int(sel>>3&15)); !ok {
					id = pool[int(sel)%len(pool)]
				}
				seen = append(seen, id)
			}
			switch tag {
			case 0:
				if len(ops) < 2 {
					return
				}
				card := int(ops[0]) | int(ops[1])<<8
				ops = ops[2:]
				if card == 0xffff {
					card = math.MaxUint32 - 1
				}
				tab.Set(id, card)
				model[id] = card
			case 1:
				_, want := model[id]
				if got := tab.Delete(id); got != want {
					t.Fatalf("op %d: Delete(%d) = %v, want %v", op, id, got, want)
				}
				delete(model, id)
			}
			want, wantOK := model[id]
			if got, ok := tab.Get(id); got != want || ok != wantOK {
				t.Fatalf("op %d: Get(%d) = %d, %v; want %d, %v", op, id, got, ok, want, wantOK)
			}
		}
		checkCardTable(t, "end", &tab, model, seen)
		for id := range model {
			if !tab.Delete(id) {
				t.Fatalf("Delete(%d) missed while draining", id)
			}
			delete(model, id)
		}
		checkCardTable(t, "drained", &tab, model, seen)
	})
}

// TestSnapshotSwapsCardTable checks ScanDocs cards after ReadFrom swaps a
// freshly built table into a populated index: every loaded document
// reads its own set's cardinality, and no document of the replaced
// corpus survives in the table.
func TestSnapshotSwapsCardTable(t *testing.T) {
	orig := newGeodabIndex(t)
	if err := orig.AddAll(context.Background(), testWorkload.Dataset, 4); err != nil {
		t.Fatal(err)
	}
	orig.Delete(testWorkload.Dataset.Trajectories[2].ID)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := New(orig.Extractor(), false)
	stale := trajectory.ID(1 << 30)
	if err := loaded.insert(stale, []uint32{1, 2, 3}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	want := make(map[trajectory.ID]int)
	orig.ScanDocs(func(id trajectory.ID, set []uint32, card int) bool {
		want[id] = len(set)
		return true
	})
	seen := 0
	loaded.ScanDocs(func(id trajectory.ID, set []uint32, card int) bool {
		seen++
		if card != len(set) || card != want[id] {
			t.Errorf("doc %d card %d, set %d, written %d", id, card, len(set), want[id])
		}
		return true
	})
	if seen != len(want) {
		t.Errorf("scanned %d docs, want %d", seen, len(want))
	}
	if _, ok := loaded.cards.Get(uint32(stale)); ok {
		t.Error("the replaced corpus's card survived the swap")
	}
}
