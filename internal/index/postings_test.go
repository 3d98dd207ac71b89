package index

import (
	"maps"
	"testing"

	"geodabs/internal/bitmap"
)

// Terms and IDs of FuzzPostings' op stream. Small terms are picked by a
// bitmask; hot is the one term the bulk ops push past arrayMax documents,
// so its list turns from an array into a bitset container and back.
// absent is counted but never added.
const (
	smallTerms = 8
	hot        = 1000
	absent     = 2000
	arrayMax   = 4096
	bulkBase   = 1 << 16
)

// FuzzPostings checks the posting store against a map-of-sets model over
// an op stream of Add and Remove, including the removal of absent IDs and
// absent terms, re-adding a document, IDs in four 64 Ki chunks, and the
// hot term's list crossing 4,096 documents both ways. After every op each
// list must equal the model's set, an emptied list must be gone, Size
// must equal the sum over the lists, and Count followed by Drain must
// give every document's model count over all terms.
func FuzzPostings(f *testing.F) {
	f.Add([]byte{0, 1, 3, 0, 1, 3, 1, 1, 1, 1, 1, 2, 1, 9, 255})
	f.Add([]byte{2, 3, 0, 0, 65, 7, 3, 10, 0, 1, 65, 7, 3, 255, 0, 0, 128, 255})
	f.Add([]byte{1, 200, 255, 0, 200, 129, 2, 0, 0, 3, 1, 0, 0, 200, 129})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*64 {
			ops = ops[:3*64]
		}
		p := make(Postings)
		model := make(map[uint32]map[uint32]bool) // term → IDs on its list
		for i := 0; i+3 <= len(ops); i += 3 {
			kind, a, b := ops[i]%4, ops[i+1], ops[i+2]
			switch kind {
			case 0, 1: // Add or Remove one document on the small terms of mask b
				id := uint32(a>>6)<<16 | uint32(a&63) // chunks 0–3
				var terms []uint32
				for term := range uint32(smallTerms) {
					if b&(1<<term) != 0 {
						terms = append(terms, term)
					}
				}
				if kind == 0 {
					p.Add(id, terms)
				} else {
					p.Remove(id, terms)
				}
				for _, term := range terms {
					if model[term] == nil {
						model[term] = make(map[uint32]bool)
					}
					if kind == 0 {
						model[term][id] = true
					} else {
						delete(model[term], id)
					}
				}
			case 2: // put arrayMax+1+a%4 documents of chunk 1 on the hot term
				if model[hot] == nil {
					model[hot] = make(map[uint32]bool)
				}
				for id := uint32(bulkBase); id < bulkBase+arrayMax+1+uint32(a%4); id++ {
					p.Add(id, []uint32{hot})
					model[hot][id] = true
				}
			case 3: // withdraw the first 17·a of them from the hot term and a small one
				for id := uint32(bulkBase); id < bulkBase+17*uint32(a); id++ {
					p.Remove(id, []uint32{uint32(b % smallTerms), hot})
					delete(model[hot], id)
					delete(model[uint32(b%smallTerms)], id)
				}
			}
			checkPostings(t, p, model)
		}
	})
}

// checkPostings compares a posting store with its model.
func checkPostings(t *testing.T, p Postings, model map[uint32]map[uint32]bool) {
	t.Helper()
	terms, wantPostings, wantBytes := 0, 0, 0
	wantCounts := make(map[uint32]uint32)
	for term, ids := range model {
		if len(ids) == 0 {
			if _, ok := p[term]; ok {
				t.Fatalf("term %d: emptied list kept", term)
			}
			continue
		}
		terms++
		l, ok := p[term]
		if !ok {
			t.Fatalf("term %d: list missing, want %d documents", term, len(ids))
		}
		if l.Cardinality() != len(ids) {
			t.Fatalf("term %d: list holds %d documents, want %d", term, l.Cardinality(), len(ids))
		}
		for id := range ids {
			if !l.Contains(id) {
				t.Fatalf("term %d: list lacks document %d", term, id)
			}
			wantCounts[id]++
		}
		wantPostings += len(ids)
		wantBytes += l.SizeInBytes()
	}
	if len(p) != terms {
		t.Fatalf("%d lists, want %d", len(p), terms)
	}
	if postings, bytes := p.Size(); postings != wantPostings || bytes != wantBytes {
		t.Fatalf("Size = (%d, %d), want (%d, %d)", postings, bytes, wantPostings, wantBytes)
	}
	query := []uint32{absent, hot}
	for term := range uint32(smallTerms) {
		query = append(query, term)
	}
	c := bitmap.NewCounter()
	p.Count(c, query)
	cands := c.Candidates()
	counts, _ := c.Drain(nil, nil)
	got := make(map[uint32]uint32, len(cands))
	for i, id := range cands {
		got[id] = counts[i]
	}
	if !maps.Equal(got, wantCounts) {
		t.Fatalf("Count: %d candidates, want %d; counts differ", len(got), len(wantCounts))
	}
}
