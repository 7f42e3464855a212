package sim

import (
	"testing"
)

// TestRescheduleMatchesCancelPlusAfter pins the equivalence contract that
// lets machine.refresh use in-place rescheduling: for any interleaving of
// moves and fresh schedules, Reschedule(t) must fire in exactly the
// position Cancel+At(t) would have — same times, same tie-break order
// among same-time events — because both draw a fresh insertion sequence.
func TestRescheduleMatchesCancelPlusAfter(t *testing.T) {
	type op struct {
		moveTo Time // reschedule the tracked event here
		peerAt Time // then schedule a peer event here
	}
	scripts := [][]op{
		{{moveTo: 5, peerAt: 5}},                         // move then peer at same time: event first
		{{moveTo: 5, peerAt: 3}, {moveTo: 3, peerAt: 5}}, // move past a peer
		{{moveTo: 9, peerAt: 9}, {moveTo: 9, peerAt: 9}}, // repeated same-time moves
		{{moveTo: 2, peerAt: 2}, {moveTo: 7, peerAt: 2}}, // move away after tying
		{{moveTo: 4, peerAt: 6}, {moveTo: 4, peerAt: 4}}, // reschedule to the same time
		{{moveTo: 1, peerAt: 1}, {moveTo: 1, peerAt: 8}, {moveTo: 8, peerAt: 8}},
	}
	for si, script := range scripts {
		run := func(useReschedule bool) []string {
			var order []string
			e := NewEngine()
			h := e.At(100, func() { order = append(order, "tracked") })
			for oi, o := range script {
				if useReschedule {
					if !h.Reschedule(o.moveTo) {
						t.Fatalf("script %d op %d: Reschedule reported stale", si, oi)
					}
				} else {
					h.Cancel()
					h = e.At(o.moveTo, func() { order = append(order, "tracked") })
				}
				oi := oi
				e.At(o.peerAt, func() { order = append(order, "peer", string(rune('0'+oi))) })
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			return order
		}
		want := run(false)
		got := run(true)
		if len(got) != len(want) {
			t.Fatalf("script %d: got %v, want %v", si, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("script %d: firing order diverged at %d: got %v, want %v", si, i, got, want)
			}
		}
	}
}

// TestRescheduleKeepsHandleLive verifies gen/Pending semantics: an in-place
// move keeps the same handle valid (unlike Cancel+At, which issues a new
// one), and the handle goes stale only when the event finally fires.
func TestRescheduleKeepsHandleLive(t *testing.T) {
	e := NewEngine()
	fired := false
	h := e.At(10, func() { fired = true })
	if !h.Reschedule(20) {
		t.Fatal("Reschedule on a pending handle reported stale")
	}
	if !h.Pending() {
		t.Fatal("handle went stale across an in-place reschedule")
	}
	if at, ok := h.When(); !ok || at != 20 {
		t.Fatalf("When() = %v, %v after reschedule, want 20, true", at, ok)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("rescheduled event never fired")
	}
	if h.Pending() {
		t.Fatal("handle still pending after firing")
	}
	if _, ok := h.When(); ok {
		t.Fatal("When() reported a time for a stale handle")
	}
	if h.Reschedule(30) {
		t.Fatal("Reschedule on a fired handle reported success")
	}
	if e.Pending() != 0 {
		t.Fatalf("stale reschedule left %d events pending", e.Pending())
	}
}

// TestRescheduleToSameTimeRequeues pins the subtle part of the contract: a
// reschedule to the event's current time still draws a fresh sequence, so
// the event moves behind already-queued peers at that time — exactly as
// Cancel+At would.
func TestRescheduleToSameTimeRequeues(t *testing.T) {
	var order []string
	e := NewEngine()
	h := e.At(5, func() { order = append(order, "moved") })
	e.At(5, func() { order = append(order, "peer") })
	h.Reschedule(5)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "peer" || order[1] != "moved" {
		t.Fatalf("order = %v, want [peer moved]", order)
	}
}

// TestRescheduleDoesNotCountAsCancel: how often tasks are rescheduled is a
// detail of the machine's refresh strategy, so the cancellation counter —
// which IS exported through the observability layer — must not move on
// reschedules, or a change of refresh strategy would move the metrics.
func TestRescheduleDoesNotCountAsCancel(t *testing.T) {
	e := NewEngine()
	h := e.At(1, func() {})
	h.Reschedule(2)
	h.Reschedule(3)
	if got := e.Cancelled(); got != 0 {
		t.Fatalf("Cancelled() = %d after reschedules, want 0", got)
	}
	if got := e.Rescheduled(); got != 2 {
		t.Fatalf("Rescheduled() = %d, want 2", got)
	}
	h.Cancel()
	if got := e.Cancelled(); got != 1 {
		t.Fatalf("Cancelled() = %d after one Cancel, want 1", got)
	}
}

// TestRescheduleOrAt covers both arms: in-place move for a live handle,
// fresh schedule for a zero or stale one.
func TestRescheduleOrAt(t *testing.T) {
	e := NewEngine()
	fired := 0
	fn := func() { fired++ }

	var zero Handle
	h := e.RescheduleOrAt(zero, 4, fn)
	if !h.Pending() {
		t.Fatal("RescheduleOrAt on a zero handle did not schedule")
	}
	h2 := e.RescheduleOrAt(h, 6, fn)
	if h2 != h {
		t.Fatal("RescheduleOrAt on a live handle did not move in place")
	}
	if at, _ := h2.When(); at != 6 {
		t.Fatalf("event at %v, want 6", at)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("event fired %d times, want 1", fired)
	}
	// Stale handle: schedules afresh.
	h3 := e.RescheduleOrAt(h2, 8, fn)
	if !h3.Pending() || h3 == h2 {
		t.Fatal("RescheduleOrAt on a stale handle must schedule a fresh event")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("event fired %d times, want 2", fired)
	}
}

// TestReschedulePastPanics mirrors the At contract.
func TestReschedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {})
	h := e.At(10, func() {})
	if err := e.RunUntil(7); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("rescheduling into the past did not panic")
		}
	}()
	h.Reschedule(3)
}

// TestRescheduleAllocsFree pins the perf contract: an in-place move on a
// warm engine performs zero allocations.
func TestRescheduleAllocsFree(t *testing.T) {
	e := NewEngine()
	h := e.At(1, func() {})
	allocs := testing.AllocsPerRun(100, func() {
		h.Reschedule(2)
	})
	if allocs != 0 {
		t.Fatalf("Reschedule allocates %g per call, want 0", allocs)
	}
}

// TestFlushRunsAtInstantEnd verifies the engine's instant-end barrier: an
// armed flush runs after all events at the current timestamp and before
// the clock advances, may schedule at the current instant, and runs again
// if re-armed — without counting toward Processed.
func TestFlushRunsAtInstantEnd(t *testing.T) {
	var order []string
	e := NewEngine()
	e.SetFlusher(func() {
		order = append(order, "flush")
		// Flush may extend the current instant.
		e.At(e.Now(), func() { order = append(order, "post-flush event") })
	})
	e.At(1, func() {
		order = append(order, "a")
		e.ArmFlush()
	})
	e.At(1, func() { order = append(order, "b") })
	e.At(2, func() { order = append(order, "c") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "flush", "post-flush event", "c"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if got := e.Processed(); got != 4 {
		t.Fatalf("Processed() = %d, want 4 (flush is not an event)", got)
	}
}

// TestFlushRunsBeforeRunUntilReturns: a deadline stop is an instant end
// too — pending marks must be flushed before control returns, or deferred
// completion events would be left at stale times.
func TestFlushRunsBeforeRunUntilReturns(t *testing.T) {
	flushed := 0
	e := NewEngine()
	e.SetFlusher(func() { flushed++ })
	e.At(1, func() { e.ArmFlush() })
	e.At(10, func() {})
	if err := e.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if flushed != 1 {
		t.Fatalf("flush ran %d times before RunUntil returned, want 1", flushed)
	}
	if e.Now() != 5 {
		t.Fatalf("clock at %v, want 5", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if flushed != 1 {
		t.Fatalf("disarmed flush re-ran: %d", flushed)
	}
}

// TestArmFlushWithoutFlusherPanics: arming without a registered callback
// is a wiring bug in the layer above.
func TestArmFlushWithoutFlusherPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ArmFlush without a flusher did not panic")
		}
	}()
	NewEngine().ArmFlush()
}
