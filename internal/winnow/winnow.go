// Package winnow implements the winnowing fingerprint-selection algorithm
// of Schleimer, Wilkerson & Aiken (SIGMOD 2003), the algorithm the paper
// adapts to trajectories (§IV-A, Algorithm 1).
//
// Given the sequence of k-gram hashes of a document — or of geodabs of a
// trajectory — winnowing slides a window of size w = t−k+1 over the
// sequence and selects, for every window, the right-most occurrence of the
// window's minimum value. The selection satisfies two guarantees:
//
//  1. Noise threshold: no match shorter than k tokens is ever detected,
//     because only k-gram hashes are considered.
//  2. Guarantee threshold: any common run of at least t tokens — that is,
//     at least w consecutive equal hashes — yields at least one common
//     selected fingerprint, because the two sides select the same minimum
//     inside the shared window.
package winnow

// SelectInto appends to dst the positions of the hashes selected by
// winnowing with a window of size w, in increasing order and without
// duplicates, and returns the extended slice; hot paths recycle the
// position buffer across calls. When the sequence is shorter than the
// window no position is selected, matching Algorithm 1 of the paper: such
// sequences are below the noise threshold.
//
// SelectInto panics if w < 1.
func SelectInto(dst []int, hashes []uint32, w int) []int {
	if w < 1 {
		panic("winnow: window size must be at least 1")
	}
	// m is the position of the right-most minimum of the current window;
	// -1 forces a full scan of the first window.
	m := -1
	for i := 0; i+w <= len(hashes); i++ {
		switch {
		case m < i:
			// The previous minimum fell out of the window: rescan.
			m = i
			for j := i + 1; j < i+w; j++ {
				if hashes[j] <= hashes[m] {
					m = j
				}
			}
			dst = append(dst, m)
		case hashes[i+w-1] <= hashes[m]:
			// The entering hash is a new right-most minimum.
			m = i + w - 1
			dst = append(dst, m)
		}
	}
	return dst
}

// SelectShortInto behaves like SelectInto but additionally handles
// sequences shorter than the window by selecting the right-most minimum
// of the whole sequence. Indexing pipelines use it when losing short
// trajectories entirely (the paper's strict behaviour) is not acceptable.
func SelectShortInto(dst []int, hashes []uint32, w int) []int {
	if len(hashes) >= w || len(hashes) == 0 {
		// Every length reaches here when w < 1: SelectInto panics on it.
		return SelectInto(dst, hashes, w)
	}
	m := 0
	for j := 1; j < len(hashes); j++ {
		if hashes[j] <= hashes[m] {
			m = j
		}
	}
	return append(dst, m)
}
