package index

import (
	"sync"

	"geodabs/internal/bitmap"
)

// Postings is a posting store: for each term, the bitmap of the documents
// that hold it. It is the one code that puts a document on its terms'
// lists, withdraws it, and streams lists into a counter — the local
// engine (Inverted) and a cluster node each hold one, and keep their own
// per-document bookkeeping beside it. A list exists only while it holds a
// document. Postings does no locking: its owner's lock guards it. Both
// owners hand it a document's terms as the slice they keep: the engine the
// whole fingerprint set, a node the terms routed to it.
type Postings map[uint32]*bitmap.Bitmap

// Add puts document id on the list of every term, creating a list on its
// first document.
func (p Postings) Add(id uint32, terms []uint32) {
	for _, term := range terms {
		l, ok := p[term]
		if !ok {
			l = bitmap.New()
			p[term] = l
		}
		l.Add(id)
	}
}

// Remove withdraws document id from the list of every term, deleting a
// list it leaves empty. Absent terms and absent documents are skipped.
func (p Postings) Remove(id uint32, terms []uint32) {
	for _, term := range terms {
		if l, ok := p[term]; ok {
			l.Remove(id)
			if l.IsEmpty() {
				delete(p, term)
			}
		}
	}
}

// Count is the counting merge: it streams the list of each of terms into
// c, so that c holds, per document, how many of the terms it is on.
//
//geodabs:noalloc
func (p Postings) Count(c *bitmap.Counter, terms []uint32) {
	for _, term := range terms {
		if l, ok := p[term]; ok {
			c.Add(l)
		}
	}
}

// Size returns the number of (term, document) pairs held and the bytes
// their lists take; it is linear in the number of terms.
func (p Postings) Size() (postings, bytes int) {
	for _, l := range p {
		postings += l.Cardinality()
		bytes += l.SizeInBytes()
	}
	return postings, bytes
}

// Scratch is the pooled per-search state of the local engine, a cluster
// node and the cluster's coordinator; pooling it makes each of their
// steady-state searches allocation-free. The engine counts into Counter
// and ranks with Ranker; a node counts into Counter and either drains the
// counts into Counts or, for a one-node plan, ranks with Ranker into
// Hits; the coordinator sums the nodes' counts into Counter and ranks
// with Ranker.
type Scratch struct {
	Counter *bitmap.Counter
	Counts  []uint32
	Hits    []Result
	Ranker  Ranker
}

var scratchPool = sync.Pool{New: func() any { return &Scratch{Counter: bitmap.NewCounter()} }}

// GetScratch takes a scratch from the pool; its Counter is empty.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Release resets the counter and returns the scratch to the pool. Nothing
// read from the scratch may be used after it.
func (s *Scratch) Release() {
	s.Counter.Reset()
	scratchPool.Put(s)
}
