//go:build !race

package cluster

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates, so allocation-count assertions skip.
const raceEnabled = false
