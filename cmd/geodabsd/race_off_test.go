//go:build !race

package main

// raceEnabled reports whether the race detector is active, so the
// binaries under test are race-built too.
const raceEnabled = false
