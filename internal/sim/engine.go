package sim

import (
	"errors"
	"fmt"
)

// Event is a closure scheduled to run at a point in virtual time.
type Event func()

// entry is one element of the event queue. It is a pure value — no
// pointers — so sifting entries through the heap moves plain words and
// never triggers a garbage-collector write barrier, and comparisons read
// the keys in place instead of chasing a pointer per element. Ties on
// time are broken by insertion sequence; (at, seq) is a strict total
// order, so the pop order, and with it every simulated output, does not
// depend on the heap's shape.
type entry struct {
	at   Time
	seq  uint64
	slot int32 // index into Engine.slots
}

func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// slot is the mutable side of a scheduled event: its callback, its
// incarnation counter and its current heap position.
//
// Slots are pooled: when an event fires or is cancelled its slot returns
// to the engine's free list and its gen counter advances, invalidating
// every Handle issued for the previous incarnation. A paper-scale campaign
// schedules hundreds of millions of events, so recycling slots is what
// keeps the hot loop allocation-free.
type slot struct {
	fn  Event
	gen uint64 // incarnation counter; bumped on recycle
	pos int32  // index in Engine.heap while pending
}

// Handle identifies a scheduled event and allows cancelling it. A Handle
// is only valid for the incarnation it was issued for: once the event has
// fired or been cancelled, the Handle goes stale and all its methods
// report false, even if the engine has recycled the underlying slot for a
// new event.
type Handle struct {
	eng  *Engine
	slot int32
	gen  uint64
}

// live returns the handle's slot while its incarnation is pending, or nil
// for a stale or zero handle.
func (h Handle) live() *slot {
	if h.eng == nil {
		return nil
	}
	if s := &h.eng.slots[h.slot]; s.gen == h.gen {
		return s
	}
	return nil
}

// Cancel removes the event from the engine's queue. Cancelling an
// already-run or already-cancelled event is a no-op. Cancel reports
// whether the event was still pending. The slot is recycled immediately,
// so cancelled events do not linger in the queue or inflate Pending().
func (h Handle) Cancel() bool {
	s := h.live()
	if s == nil {
		return false
	}
	e := h.eng
	e.cancelled++
	e.remove(int(s.pos))
	e.recycle(h.slot)
	return true
}

// Pending reports whether the event is still waiting to fire.
func (h Handle) Pending() bool { return h.live() != nil }

// When returns the time the event is scheduled to fire at, and whether the
// handle is still live. A stale handle reports (0, false).
func (h Handle) When() (Time, bool) {
	s := h.live()
	if s == nil {
		return 0, false
	}
	return h.eng.heap[s.pos].at, true
}

// Reschedule moves a still-pending event to absolute time t in place: the
// event keeps its slot (and the Handle stays valid) but draws a fresh
// insertion sequence, exactly as if it had been cancelled and re-scheduled
// — so tie-break ordering against other events at t is identical to
// Cancel+At — while paying a single sift instead of a removal and an
// insertion. Rescheduling a stale handle is a no-op that reports false; it
// does not count as a cancellation. Rescheduling into the past panics.
func (h Handle) Reschedule(t Time) bool {
	s := h.live()
	if s == nil {
		return false
	}
	e := h.eng
	if t < e.now {
		panic(fmt.Sprintf("sim: rescheduling event at %v before now %v", t, e.now))
	}
	i := int(s.pos)
	e.heap[i].at = t
	e.heap[i].seq = e.seq
	e.seq++
	e.fix(i)
	e.rescheduled++
	return true
}

// Engine is the discrete-event simulator core. It is not safe for
// concurrent use: the whole simulation is single-threaded by design, so
// results are bit-identical across runs and host machines.
type Engine struct {
	now Time
	seq uint64
	// heap is a binary min-heap of pending events ordered by (at, seq).
	heap []entry
	// slots holds the callback of every event slot ever allocated; free
	// lists the recycled ones, which At hands out again so steady-state
	// scheduling performs no allocation.
	slots []slot
	free  []int32
	// processed counts events executed; used by tests and runaway guards.
	processed uint64
	// cancelled counts events removed via Handle.Cancel before firing.
	// The observability layer samples processed/cancelled at end of run
	// (pull, not push), so the hot loop carries only these plain
	// increments.
	cancelled uint64
	// rescheduled counts in-place Handle.Reschedule moves. Test-only
	// telemetry: deliberately NOT exported through the observability layer,
	// because refresh coalescing changes how often tasks are rescheduled
	// while leaving every observable output identical.
	rescheduled uint64
	// limit aborts Run after this many events (0 = unlimited) to convert
	// accidental infinite event loops into an error instead of a hang.
	limit uint64
	// flush, when set and armed, runs at the end of every virtual instant:
	// Run/RunUntil invoke it (directly, not as an event — it does not count
	// toward Processed) after draining all events at the current time and
	// before advancing the clock, returning, or stopping at a deadline.
	// Callbacks may schedule new events at the current instant and re-arm.
	flush      func()
	flushArmed bool
}

// ErrEventLimit is returned by Run when the configured event limit is hit.
var ErrEventLimit = errors.New("sim: event limit exceeded")

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Cancelled returns the number of events cancelled before firing.
func (e *Engine) Cancelled() uint64 { return e.cancelled }

// Rescheduled returns the number of in-place Reschedule moves (test-only;
// not an observability metric — see the field comment).
func (e *Engine) Rescheduled() uint64 { return e.rescheduled }

// Pending returns the number of live events waiting in the queue.
// Cancelled events are removed eagerly, so they never count.
func (e *Engine) Pending() int { return len(e.heap) }

// SetLimit installs a guard: Run returns ErrEventLimit after n events.
// n = 0 removes the guard.
func (e *Engine) SetLimit(n uint64) { e.limit = n }

// alloc takes a slot from the free list, or grows the table.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free = e.free[:n-1]
		return s
	}
	e.slots = append(e.slots, slot{})
	return int32(len(e.slots) - 1)
}

// recycle invalidates outstanding Handles for slot s and returns it to the
// free list. The caller must have already unlinked it from the heap.
func (e *Engine) recycle(s int32) {
	sl := &e.slots[s]
	sl.fn = nil
	sl.gen++
	e.free = append(e.free, s)
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a logic error in the layers above.
func (e *Engine) At(t Time, fn Event) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: scheduling nil event")
	}
	s := e.alloc()
	sl := &e.slots[s]
	sl.fn = fn
	e.heap = append(e.heap, entry{at: t, seq: e.seq, slot: s})
	e.seq++
	e.up(len(e.heap) - 1)
	return Handle{eng: e, slot: s, gen: sl.gen}
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d Duration, fn Event) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// RescheduleOrAt moves a still-pending event to time t in place (keeping
// its callback — fn is ignored in that case) or, if the handle is stale or
// zero, schedules fn afresh at t. It returns the live handle either way.
// This is the refresh primitive: semantically identical to Cancel+At but
// with one heap operation and no churn through the free list.
func (e *Engine) RescheduleOrAt(h Handle, t Time, fn Event) Handle {
	if h.Reschedule(t) {
		return h
	}
	return e.At(t, fn)
}

// SetFlusher registers fn as the engine's instant-end flush callback.
// It only runs after ArmFlush has been called, and each arm fires it once.
// Pass nil to deregister.
func (e *Engine) SetFlusher(fn func()) { e.flush = fn }

// ArmFlush requests that the registered flush callback run at the end of
// the current virtual instant (see the flush field for exact semantics).
func (e *Engine) ArmFlush() {
	if e.flush == nil {
		panic("sim: ArmFlush without a registered flusher")
	}
	e.flushArmed = true
}

// flushDue reports whether the armed flush must run now: the current
// instant is over when no remaining event shares the current timestamp.
func (e *Engine) flushDue() bool {
	return e.flushArmed && (len(e.heap) == 0 || e.heap[0].at > e.now)
}

func (e *Engine) runFlush() {
	e.flushArmed = false
	e.flush()
}

// Run executes events until the queue is empty or the event limit is hit.
func (e *Engine) Run() error {
	for {
		if e.flushDue() {
			e.runFlush()
			continue
		}
		if len(e.heap) == 0 {
			return nil
		}
		if err := e.step(); err != nil {
			return err
		}
	}
}

// RunUntil executes events with timestamps <= deadline. The clock is left
// at the deadline (or at the last event, whichever is later) so that
// subsequent After calls measure from the deadline.
func (e *Engine) RunUntil(deadline Time) error {
	for {
		if e.flushDue() {
			e.runFlush()
			continue
		}
		if len(e.heap) == 0 || e.heap[0].at > deadline {
			break
		}
		if err := e.step(); err != nil {
			return err
		}
	}
	if e.now < deadline {
		e.now = deadline
	}
	return nil
}

func (e *Engine) step() error {
	top := e.heap[0]
	e.remove(0)
	if top.at < e.now {
		panic("sim: event queue time went backwards")
	}
	e.now = top.at
	e.processed++
	if e.limit != 0 && e.processed > e.limit {
		e.recycle(top.slot)
		return fmt.Errorf("%w: %d events at t=%v", ErrEventLimit, e.processed, e.now)
	}
	// Recycle before firing: the slot is free for reuse by events the
	// callback schedules, while the bumped gen keeps the fired event's own
	// Handles stale.
	fn := e.slots[top.slot].fn
	e.recycle(top.slot)
	fn()
	return nil
}

// place stores x at heap index i and records the position in its slot.
func (e *Engine) place(i int, x entry) {
	e.heap[i] = x
	e.slots[x.slot].pos = int32(i)
}

// up sifts the entry at i toward the root.
func (e *Engine) up(i int) {
	x := e.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(e.heap[p]) {
			break
		}
		e.place(i, e.heap[p])
		i = p
	}
	e.place(i, x)
}

// down sifts the entry at i toward the leaves and reports whether it moved.
func (e *Engine) down(i int) bool {
	h := e.heap
	n := len(h)
	x := h[i]
	start := i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(x) {
			break
		}
		e.place(i, h[c])
		i = c
	}
	e.place(i, x)
	return i > start
}

// fix restores heap order after the key at i changed.
func (e *Engine) fix(i int) {
	if !e.down(i) {
		e.up(i)
	}
}

// remove unlinks the entry at heap index i.
func (e *Engine) remove(i int) {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if i == n {
		return
	}
	e.place(i, last)
	e.fix(i)
}
