package sim

import (
	"fmt"
	"testing"
)

// diffEngine is the surface the differential test drives on both the
// production engine and the container/heap reference. Handles live inside
// the adapter and are addressed by issue order, so one script can name
// "the third event scheduled" on both sides.
type diffEngine interface {
	now() Time
	at(t Time, fn Event)
	cancel(h int) bool
	reschedule(h int, t Time) bool
	rescheduleOrAt(h int, t Time, fn Event)
	when(h int) (Time, bool)
	pending(h int) bool
	handles() int
	runUntil(t Time)
	run()
	setFlusher(fn func())
	armFlush()
	counts() string
}

type prodDiff struct {
	e  *Engine
	hs []Handle
}

func (d *prodDiff) now() Time                     { return d.e.Now() }
func (d *prodDiff) at(t Time, fn Event)           { d.hs = append(d.hs, d.e.At(t, fn)) }
func (d *prodDiff) cancel(h int) bool             { return d.hs[h].Cancel() }
func (d *prodDiff) reschedule(h int, t Time) bool { return d.hs[h].Reschedule(t) }
func (d *prodDiff) rescheduleOrAt(h int, t Time, fn Event) {
	d.hs[h] = d.e.RescheduleOrAt(d.hs[h], t, fn)
}
func (d *prodDiff) when(h int) (Time, bool) { return d.hs[h].When() }
func (d *prodDiff) pending(h int) bool      { return d.hs[h].Pending() }
func (d *prodDiff) handles() int            { return len(d.hs) }
func (d *prodDiff) runUntil(t Time) {
	if err := d.e.RunUntil(t); err != nil {
		panic(err)
	}
}
func (d *prodDiff) run() {
	if err := d.e.Run(); err != nil {
		panic(err)
	}
}
func (d *prodDiff) setFlusher(fn func()) { d.e.SetFlusher(fn) }
func (d *prodDiff) armFlush()            { d.e.ArmFlush() }
func (d *prodDiff) counts() string {
	return fmt.Sprintf("%d/%d/%d/%d", d.e.Processed(), d.e.Cancelled(), d.e.Rescheduled(), d.e.Pending())
}

type refDiff struct {
	e  *refEngine
	hs []refHandle
}

func (d *refDiff) now() Time                     { return d.e.now }
func (d *refDiff) at(t Time, fn Event)           { d.hs = append(d.hs, d.e.At(t, fn)) }
func (d *refDiff) cancel(h int) bool             { return d.hs[h].Cancel() }
func (d *refDiff) reschedule(h int, t Time) bool { return d.hs[h].Reschedule(t) }
func (d *refDiff) rescheduleOrAt(h int, t Time, fn Event) {
	d.hs[h] = d.e.RescheduleOrAt(d.hs[h], t, fn)
}
func (d *refDiff) when(h int) (Time, bool) { return d.hs[h].When() }
func (d *refDiff) pending(h int) bool      { return d.hs[h].Pending() }
func (d *refDiff) handles() int            { return len(d.hs) }
func (d *refDiff) runUntil(t Time)         { d.e.RunUntil(t) }
func (d *refDiff) run()                    { d.e.Run() }
func (d *refDiff) setFlusher(fn func())    { d.e.flush = fn }
func (d *refDiff) armFlush()               { d.e.flushArmed = true }
func (d *refDiff) counts() string {
	return fmt.Sprintf("%d/%d/%d/%d", d.e.processed, d.e.cancelled, d.e.rescheduled, len(d.e.events))
}

// script replays a byte string as engine operations, two bytes per
// operation: an opcode and an argument whose low two bits pick a delay of
// 0, 0.25, 0.5 or 0.75 (so equal timestamps are common) and whose upper
// bits pick a previously issued handle (stale ones included). Every fired
// event and every flush consumes further operations from the same cursor,
// so callbacks schedule, cancel and reschedule too. The log records every
// fire, every answer and the engine's counters after each top-level step;
// two engines that agree on it agree on everything the script can see.
type script struct {
	ops    []byte
	pos    int
	eng    diffEngine
	nextID int
	log    []string
}

func (s *script) logf(format string, args ...any) {
	s.log = append(s.log, fmt.Sprintf(format, args...))
}

// exec performs one operation and reports whether the script had one
// left. Only the top level advances the clock (a callback cannot re-enter
// the run loop).
func (s *script) exec(top bool) bool {
	if s.pos+1 >= len(s.ops) {
		return false
	}
	op, arg := s.ops[s.pos], s.ops[s.pos+1]
	s.pos += 2
	e := s.eng
	t := e.now() + Time(arg&3)*0.25
	h := -1
	if n := e.handles(); n > 0 {
		h = int(arg>>2) % n
	}
	switch op % 8 {
	case 0, 1:
		id := s.nextID
		s.nextID++
		e.at(t, s.event(id))
		s.logf("at %d %v", id, t)
	case 2:
		if h >= 0 {
			s.logf("cancel %d %v", h, e.cancel(h))
		}
	case 3:
		if h >= 0 {
			s.logf("reschedule %d %v %v", h, t, e.reschedule(h, t))
		}
	case 4:
		if h >= 0 {
			id := s.nextID
			s.nextID++
			e.rescheduleOrAt(h, t, s.event(id))
			s.logf("reschedule-or-at %d %v as %d", h, t, id)
		}
	case 5:
		if h >= 0 {
			at, ok := e.when(h)
			s.logf("when %d %v %v pending %v", h, at, ok, e.pending(h))
		}
	case 6:
		if top {
			e.runUntil(t)
			s.logf("until %v now %v", t, e.now())
		}
	case 7:
		e.armFlush()
	}
	return true
}

func (s *script) event(id int) Event {
	return func() {
		s.logf("fire %d at %v", id, s.eng.now())
		s.exec(false)
		s.exec(false)
	}
}

func runScript(e diffEngine, ops []byte) []string {
	s := &script{ops: ops, eng: e}
	e.setFlusher(func() {
		s.logf("flush at %v", e.now())
		s.exec(false)
	})
	for s.exec(true) {
		s.logf("counts %s", e.counts())
	}
	e.run()
	s.logf("end now %v counts %s", e.now(), e.counts())
	return s.log
}

// diffScript runs ops on both engines and fails at the first divergence.
func diffScript(t *testing.T, ops []byte) {
	t.Helper()
	want := runScript(&refDiff{e: &refEngine{}}, ops)
	got := runScript(&prodDiff{e: NewEngine()}, ops)
	for i := 0; i < len(want) || i < len(got); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			t.Fatalf("engines diverge at log line %d of %d:\n  reference: %q\n  engine:    %q",
				i, len(want), w, g)
		}
	}
}

// randomScript draws an operation string. Half the scripts weight
// scheduling heavily so the heap grows deep enough for multi-level sifts;
// the rest draw opcodes uniformly.
func randomScript(rng *RNG, n int) []byte {
	deep := rng.Intn(2) == 0
	ops := make([]byte, 2*n)
	for i := 0; i < n; i++ {
		op := byte(rng.Intn(8))
		if deep && rng.Intn(2) == 0 {
			op = 0
		}
		ops[2*i] = op
		ops[2*i+1] = byte(rng.Intn(256))
	}
	return ops
}

// TestEngineMatchesReference holds the pointer-free heap to the
// container/heap engine it replaced: same fire order, same When answers,
// same Processed/Cancelled/Rescheduled/Pending at every step.
func TestEngineMatchesReference(t *testing.T) {
	rng := NewRNG(20)
	for i := 0; i < 300; i++ {
		diffScript(t, randomScript(rng, 400))
	}
}

func FuzzEngineOrder(f *testing.F) {
	rng := NewRNG(1)
	for i := 0; i < 4; i++ {
		f.Add(randomScript(rng, 64))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<13 {
			ops = ops[:1<<13]
		}
		diffScript(t, ops)
	})
}
