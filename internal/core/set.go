package core

import "slices"

// Set is a trajectory's fingerprint set: its distinct terms, ascending,
// which is the one form a term set takes from extraction to the posting
// lists. It is opaque so that nothing outside this module can build an
// unsorted one: a Fingerprinter produces it, and code inside the module
// wraps terms it has already checked with SetOf. The zero Set is no set at
// all, as a Fingerprint literal carries; it holds no terms.
type Set struct{ terms []uint32 }

// SetOf wraps terms, which must be strictly ascending, without copying
// them; the caller must not modify them afterwards.
func SetOf(terms []uint32) Set { return Set{terms: terms} }

// TermsOf returns s's terms, ascending and shared with s, so the caller
// must not modify them. It is nil only for the zero Set: an empty set a
// Fingerprinter built has no terms but is not nil.
func TermsOf(s Set) []uint32 { return s.terms }

// Cardinality returns the number of terms in s.
func (s Set) Cardinality() int { return len(s.terms) }

// ToSlice returns a copy of s's terms, ascending.
func (s Set) ToSlice() []uint32 { return slices.Clone(s.terms) }
