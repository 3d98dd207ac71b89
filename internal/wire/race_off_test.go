//go:build !race

package wire

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates, so allocation-count assertions skip.
const raceEnabled = false
