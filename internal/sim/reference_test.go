package sim

import (
	"container/heap"
	"fmt"
)

// refEngine is the event engine as it stood before the pointer-free heap:
// container/heap over pooled *refEvent entries. It is kept only as the
// reference the differential test and FuzzEngineOrder hold the production
// engine to; nothing outside this file uses it.
type refEngine struct {
	now         Time
	seq         uint64
	events      refHeap
	free        []*refEvent
	processed   uint64
	cancelled   uint64
	rescheduled uint64
	flush       func()
	flushArmed  bool
}

type refEvent struct {
	at  Time
	seq uint64
	gen uint64
	fn  Event
	idx int
	eng *refEngine
}

type refHandle struct {
	ev  *refEvent
	gen uint64
}

func (h refHandle) Cancel() bool {
	ev := h.ev
	if ev == nil || ev.gen != h.gen {
		return false
	}
	ev.eng.cancelled++
	heap.Remove(&ev.eng.events, ev.idx)
	ev.eng.recycle(ev)
	return true
}

func (h refHandle) Pending() bool { return h.ev != nil && h.ev.gen == h.gen }

func (h refHandle) When() (Time, bool) {
	if h.ev == nil || h.ev.gen != h.gen {
		return 0, false
	}
	return h.ev.at, true
}

func (h refHandle) Reschedule(t Time) bool {
	ev := h.ev
	if ev == nil || ev.gen != h.gen {
		return false
	}
	e := ev.eng
	if t < e.now {
		panic(fmt.Sprintf("sim: rescheduling event at %v before now %v", t, e.now))
	}
	ev.at = t
	ev.seq = e.seq
	e.seq++
	heap.Fix(&e.events, ev.idx)
	e.rescheduled++
	return true
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

func (e *refEngine) alloc() *refEvent {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &refEvent{eng: e}
}

func (e *refEngine) recycle(ev *refEvent) {
	ev.fn = nil
	ev.gen++
	e.free = append(e.free, ev)
}

func (e *refEngine) At(t Time, fn Event) refHandle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	heap.Push(&e.events, ev)
	return refHandle{ev: ev, gen: ev.gen}
}

func (e *refEngine) RescheduleOrAt(h refHandle, t Time, fn Event) refHandle {
	if h.Reschedule(t) {
		return h
	}
	return e.At(t, fn)
}

func (e *refEngine) flushDue() bool {
	return e.flushArmed && (len(e.events) == 0 || e.events[0].at > e.now)
}

func (e *refEngine) runFlush() {
	e.flushArmed = false
	e.flush()
}

func (e *refEngine) Run() {
	for {
		if e.flushDue() {
			e.runFlush()
			continue
		}
		if len(e.events) == 0 {
			return
		}
		e.step()
	}
}

func (e *refEngine) RunUntil(deadline Time) {
	for {
		if e.flushDue() {
			e.runFlush()
			continue
		}
		if len(e.events) == 0 || e.events[0].at > deadline {
			break
		}
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

func (e *refEngine) step() {
	ev := heap.Pop(&e.events).(*refEvent)
	e.now = ev.at
	e.processed++
	fn := ev.fn
	e.recycle(ev)
	fn()
}
