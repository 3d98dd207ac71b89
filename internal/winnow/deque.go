package winnow

// This file implements the optimized winnowing variant the paper mentions
// and drops (§IV-A: "An optimised version of this algorithm relies on
// circular buffers … As we did not notice a significant performance gain,
// we dropped this optimization."). We reproduce it — a monotone deque over
// a circular buffer gives amortized O(1) per window instead of a rescan
// when the minimum expires — so the claim can be benchmarked:
// BenchmarkSelectVsDeque in this package measures both.

// SelectDeque returns exactly the same positions as SelectInto, computed
// with a monotone circular-buffer deque.
func SelectDeque(hashes []uint32, w int) []int {
	if w < 1 {
		panic("winnow: window size must be at least 1")
	}
	if len(hashes) < w {
		return nil
	}
	selected := make([]int, 0, len(hashes)/max(w/2, 1)+1)
	// deque holds positions whose hashes increase strictly from front to
	// back; the front is always the right-most minimum of the current
	// window. Capacity w+1: each new position is pushed before the
	// expired front is popped, so the deque transiently holds one entry
	// beyond the window size.
	cap := w + 1
	deque := make([]int, cap)
	head, tail := 0, 0 // deque[head:tail] in circular arithmetic
	size := 0
	pushBack := func(pos int) {
		// Drop back entries with hash ≥ the new one: they can never be a
		// right-most minimum again (the new position is further right and
		// no larger).
		for size > 0 {
			back := deque[(tail-1+cap)%cap]
			if hashes[back] < hashes[pos] {
				break
			}
			tail = (tail - 1 + cap) % cap
			size--
		}
		deque[tail] = pos
		tail = (tail + 1) % cap
		size++
	}
	for i := 0; i < len(hashes); i++ {
		pushBack(i)
		start := i - w + 1
		if start < 0 {
			continue
		}
		// Expire the front when it leaves the window.
		if deque[head] < start {
			head = (head + 1) % cap
			size--
		}
		m := deque[head]
		if n := len(selected); n == 0 || selected[n-1] != m {
			selected = append(selected, m)
		}
	}
	return selected
}
