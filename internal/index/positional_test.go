package index

import (
	"testing"
	"time"

	"geodabs/internal/core"
)

func newPositional(t testing.TB) *Positional {
	t.Helper()
	// Exact subsequence matching needs deterministic normalization: use
	// the same config as the geodab index so sequences are comparable.
	px, err := NewPositional(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return px
}

func TestPositionalFindsItself(t *testing.T) {
	px := newPositional(t)
	for _, tr := range testWorkload.Dataset.Trajectories[:20] {
		px.Add(tr)
	}
	if px.Len() != 20 {
		t.Fatalf("Len = %d", px.Len())
	}
	// A trajectory is a subsequence of itself from position 0.
	target := testWorkload.Dataset.Trajectories[0]
	got := px.FindSubsequence(target.Points)
	found := false
	for _, m := range got {
		if m.ID == target.ID {
			found = true
			if m.Start != 0 {
				t.Errorf("self match starts at %d", m.Start)
			}
		}
	}
	if !found {
		t.Error("trajectory not found as a subsequence of itself")
	}
}

func TestPositionalFindsMotif(t *testing.T) {
	px := newPositional(t)
	target := testWorkload.Dataset.Trajectories[0]
	px.Add(target)
	// The middle third of the raw points normalizes to an interior run of
	// the cell sequence.
	n := len(target.Points)
	sub := target.Points[n/3 : 2*n/3]
	got := px.FindSubsequence(sub)
	if len(got) != 1 || got[0].ID != target.ID {
		t.Fatalf("FindSubsequence = %v", got)
	}
	if got[0].Start == 0 {
		t.Error("interior motif should not match at position 0")
	}
}

func TestPositionalRejectsReverse(t *testing.T) {
	px := newPositional(t)
	target := testWorkload.Dataset.Trajectories[0]
	px.Add(target)
	if got := px.FindSubsequence(target.Reversed().Points); len(got) != 0 {
		t.Errorf("the reverse direction matched positionally: %v", got)
	}
}

// TestPositionalNoisyRecall demonstrates why fingerprinting replaces
// positional phrase search: a noisy re-recording of an indexed route is
// found by the Jaccard-ranked geodab index but almost never matches as an
// exact positional subsequence.
func TestPositionalNoisyRecall(t *testing.T) {
	px := newPositional(t)
	ix := newGeodabIndex(t)
	for _, tr := range testWorkload.Dataset.Trajectories {
		px.Add(tr)
		if err := ix.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	positionalHits, fingerprintHits := 0, 0
	for _, q := range testWorkload.Queries {
		if len(px.FindSubsequence(q.Points)) > 0 {
			positionalHits++
		}
		if len(search(t, ix, q, 0.99, 0)) > 0 {
			fingerprintHits++
		}
	}
	if fingerprintHits < len(testWorkload.Queries) {
		t.Errorf("fingerprint index found %d/%d noisy queries", fingerprintHits, len(testWorkload.Queries))
	}
	if positionalHits >= fingerprintHits {
		t.Errorf("positional index matched %d noisy queries, fingerprints %d — expected exact matching to be fragile",
			positionalHits, fingerprintHits)
	}
}

func TestPositionalMissingTerm(t *testing.T) {
	px := newPositional(t)
	px.Add(testWorkload.Dataset.Trajectories[0])
	other := testWorkload.Dataset.Trajectories[40] // a different route
	if got := px.FindSubsequence(other.Points); len(got) != 0 {
		t.Errorf("unrelated trajectory matched: %v", got)
	}
	if got := px.FindSubsequence(nil); got != nil {
		t.Errorf("empty query = %v", got)
	}
}

// TestPositionalVsFingerprintCost records the relative cost of positional
// subsequence search vs a fingerprint query on the same workload. At this
// corpus scale the positional merge can be fast; its real weakness —
// §III-A1's reason for fingerprinting — is exact-match fragility: two
// noisy recordings of the same route rarely share their *entire* cell
// sequence (see TestPositionalNoisyRecall), and cost grows with posting
// density in large corpora.
func TestPositionalVsFingerprintCost(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	px := newPositional(t)
	ix := newGeodabIndex(t)
	for _, tr := range testWorkload.Dataset.Trajectories {
		px.Add(tr)
		if err := ix.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	q := testWorkload.Dataset.Trajectories[0]
	start := time.Now()
	for i := 0; i < 50; i++ {
		px.FindSubsequence(q.Points)
	}
	positional := time.Since(start)
	start = time.Now()
	for i := 0; i < 50; i++ {
		search(t, ix, q, 1, 0)
	}
	fingerprint := time.Since(start)
	t.Logf("positional %v vs fingerprint %v for 50 queries", positional, fingerprint)
	// Both should at least complete; the gap is workload-dependent, so we
	// log rather than assert a ratio.
}

func BenchmarkPositionalVsFingerprint(b *testing.B) {
	px, err := NewPositional(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	ix := newGeodabIndex(b)
	for _, tr := range testWorkload.Dataset.Trajectories {
		px.Add(tr)
		if err := ix.Add(tr); err != nil {
			b.Fatal(err)
		}
	}
	q := testWorkload.Dataset.Trajectories[0]
	b.Run("positional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			px.FindSubsequence(q.Points)
		}
	})
	b.Run("fingerprint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			search(b, ix, q, 1, 0)
		}
	})
}
