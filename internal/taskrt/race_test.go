//go:build race

package taskrt

// raceEnabled reports a race-detector build, whose instrumentation adds
// allocations of its own.
const raceEnabled = true
