// Package sim provides the deterministic discrete-event simulation engine
// that all of the ILAN reproduction runs on.
//
// The engine is a classic event-driven simulator: a virtual clock, a
// priority queue of timestamped events, and a run loop that pops events in
// (time, sequence) order. Everything above it — the simulated machine, the
// tasking runtime, the schedulers, the benchmarks — executes in virtual
// time, which makes every experiment fully deterministic for a given seed
// and independent of the host's real CPU count or scheduler.
package sim

import "fmt"

// Time is virtual simulation time in seconds.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = Time

// Infinity is a sentinel time later than any event the simulator schedules.
const Infinity Time = 1e300

// Seconds returns the time as a plain float64 second count. It is the
// unit-conversion point for code that reads virtual time as seconds (e.g.
// ILAN's PTT scores): going through Seconds() makes the seconds contract
// explicit at the use site instead of relying on a bare float64 conversion
// that would silently change meaning if the tick unit ever did.
func (t Time) Seconds() float64 { return float64(t) }

// String renders a Time with microsecond precision, which is the natural
// resolution of the machine model (task bodies are 10s of microseconds).
func (t Time) String() string {
	return fmt.Sprintf("%.6fs", float64(t))
}
