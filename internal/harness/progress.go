package harness

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ilan-sched/ilan/internal/cellcache"
	"github.com/ilan-sched/ilan/internal/obs"
)

// Live campaign progress.
//
// A Tracker is the bridge between the experiment executor and the live
// monitor (internal/obsserve): the pool's worker goroutines publish each
// finished unit into it, and HTTP handlers read a consistent view without
// ever making a worker wait. The contract mirrors the observability
// layer's overhead rules:
//
//   - Nil-safe. A nil *Tracker discards every call, so the campaign
//     executor carries no "monitoring enabled" branches beyond one nil
//     check per unit.
//   - The progress counters (units done, per-cell rep counts) are plain
//     atomics: Snapshot reads them without taking a lock, so a scrape can
//     never block the pool and the pool never blocks on a scrape.
//   - Per-rep observability snapshots and event subscribers live behind a
//     mutex, but both sides of that mutex are cold paths: the publisher
//     touches it once per repetition (not per task or per loop), and event
//     delivery is non-blocking — a slow SSE consumer loses events rather
//     than stalling the campaign.
//   - The tracker only observes; nothing feeds back into the simulation,
//     so campaign outputs stay byte-identical with or without one.
type Tracker struct {
	// hdr holds the campaign layout (label, start time, cell table).
	// Begin publishes a fresh immutable header atomically, so a scrape
	// racing campaign start sees either the old campaign or the new one,
	// never a torn mix — and Snapshot stays lock-free.
	hdr atomic.Pointer[trackerHeader]

	done   atomic.Int64
	failed atomic.Int64

	finished atomic.Bool
	errMsg   atomic.Pointer[string]

	// cache, when attached, contributes hit/miss/eviction counters to
	// progress snapshots and the /metrics export. Like everything else
	// here it is read-only telemetry.
	cache atomic.Pointer[cellcache.Cache]

	mu      sync.Mutex
	snaps   []*obs.Snapshot
	attrs   []*obs.AttrSnapshot
	subs    map[int]chan ProgressEvent
	nextSub int
}

// trackerHeader is immutable after Begin publishes it; only the atomic
// per-cell done counters inside advance.
type trackerHeader struct {
	label string
	start time.Time
	cells []*trackerCell
	total int64
}

type trackerCell struct {
	name  string
	units int64
	done  atomic.Int64
}

// CellDecl declares one progress cell at campaign start: a display name
// (e.g. "CG/ilan" or "CG beta=0.003/ilan") and how many units (reps) it
// will complete.
type CellDecl struct {
	Name  string
	Units int
}

// NewTracker returns an idle tracker. Attach it via Config.Track; every
// campaign (Run, Sweep, RunOracle, RunMulti) calls Begin once with its
// cell layout before dispatching work, and Finish once at the end.
func NewTracker() *Tracker { return &Tracker{} }

// Begin (re)initializes the tracker for a campaign. Counters reset; event
// subscribers survive so a monitor attached before the campaign starts
// sees it begin.
func (t *Tracker) Begin(label string, cells []CellDecl) {
	if t == nil {
		return
	}
	h := &trackerHeader{
		label: label,
		start: time.Now(),
		cells: make([]*trackerCell, len(cells)),
	}
	for i, c := range cells {
		h.cells[i] = &trackerCell{name: c.Name, units: int64(c.Units)}
		h.total += int64(c.Units)
	}
	t.done.Store(0)
	t.failed.Store(0)
	t.finished.Store(false)
	t.errMsg.Store(nil)
	t.mu.Lock()
	t.snaps = nil
	t.attrs = nil
	t.mu.Unlock()
	t.hdr.Store(h)
}

// AttachCache wires a campaign cache's counters into progress snapshots
// (nil detaches). The campaign executor calls it right after Begin, so
// a live monitor sees hits/misses/evictions advance as units complete.
func (t *Tracker) AttachCache(c *cellcache.Cache) {
	if t == nil {
		return
	}
	t.cache.Store(c)
}

// UnitDone publishes one finished repetition of the given cell. snap and
// attr may be nil (campaign without metrics / without attribution); err
// non-nil marks the unit failed. Safe for concurrent use from pool workers.
func (t *Tracker) UnitDone(cell int, rep int, snap *obs.Snapshot, attr *obs.AttrSnapshot, err error) {
	if t == nil {
		return
	}
	// A late publish — a straggler worker finishing after Finish already
	// force-completed the counters — must not push done counts past the
	// declared totals; the campaign is terminal, so the unit is dropped.
	if t.finished.Load() {
		return
	}
	h := t.hdr.Load()
	if h == nil || cell < 0 || cell >= len(h.cells) {
		return
	}
	c := h.cells[cell]
	// Bounded increments: Finish may have force-completed the counters
	// concurrently, and a straggler's publish racing that must not push
	// them past the declared totals.
	var cellDone int64
	for {
		cur := c.done.Load()
		if cur >= c.units {
			return
		}
		if c.done.CompareAndSwap(cur, cur+1) {
			cellDone = cur + 1
			break
		}
	}
	for {
		cur := t.done.Load()
		if cur >= h.total || t.done.CompareAndSwap(cur, cur+1) {
			break
		}
	}
	if err != nil {
		t.failed.Add(1)
	}
	if snap != nil || attr != nil {
		t.mu.Lock()
		if snap != nil {
			t.snaps = append(t.snaps, snap)
		}
		if attr != nil {
			t.attrs = append(t.attrs, attr)
		}
		t.mu.Unlock()
	}
	if snap != nil {
		t.publishPhaseEvents(c.name, snap)
	}
	if cellDone == c.units {
		t.publish(ProgressEvent{Type: "cell", Cell: c.name,
			RepsDone: int(cellDone), RepsTotal: int(c.units)})
	}
}

// Finish marks the campaign terminal. Units the pool never dispatched
// (it stops issuing new work after the first failure) are force-completed
// so progress counters stay monotone AND reach the total: "done" means
// "no longer pending", and the Failed/Err fields — not a stuck counter —
// report that the campaign aborted.
func (t *Tracker) Finish(err error) {
	if t == nil {
		return
	}
	if h := t.hdr.Load(); h != nil {
		for _, c := range h.cells {
			for {
				cur := c.done.Load()
				if cur >= c.units || c.done.CompareAndSwap(cur, c.units) {
					break
				}
			}
		}
		for {
			cur := t.done.Load()
			if cur >= h.total || t.done.CompareAndSwap(cur, h.total) {
				break
			}
		}
	}
	if err != nil {
		msg := err.Error()
		t.errMsg.Store(&msg)
		// A panicking rep unwinds past the pool closure's UnitDone call
		// (the pool recovers it at the worker boundary), so the failed
		// unit may never have been counted; a failed campaign reports at
		// least one failed unit regardless.
		if t.failed.Load() == 0 {
			t.failed.Store(1)
		}
	}
	t.finished.Store(true)
	ev := ProgressEvent{Type: "done"}
	if err != nil {
		ev.Err = err.Error()
	}
	t.publish(ev)
}

// ProgressSnapshot is a consistent-enough view for the live monitor:
// counters are read atomically (a scrape racing the pool may see a cell
// advance between two reads, never regress).
type ProgressSnapshot struct {
	Label       string  `json:"label,omitempty"`
	CellsTotal  int     `json:"cells_total"`
	CellsDone   int     `json:"cells_done"`
	UnitsTotal  int64   `json:"units_total"`
	UnitsDone   int64   `json:"units_done"`
	UnitsFailed int64   `json:"units_failed"`
	ElapsedSec  float64 `json:"elapsed_sec"`
	// ETASec extrapolates wall-clock time to completion from the pool's
	// throughput so far; -1 while no unit has finished yet.
	ETASec   float64 `json:"eta_sec"`
	Finished bool    `json:"finished"`
	Err      string  `json:"error,omitempty"`
	// Cache carries the campaign cache's counters (nil when the campaign
	// runs uncached).
	Cache *cellcache.Stats `json:"cache,omitempty"`
	Cells []CellProgress   `json:"cells"`
}

// CellProgress is one cell's repetition counts.
type CellProgress struct {
	Name      string `json:"name"`
	RepsDone  int    `json:"reps_done"`
	RepsTotal int    `json:"reps_total"`
}

// Snapshot returns the current progress view without taking the tracker's
// mutex — safe to call at any scrape rate.
func (t *Tracker) Snapshot() ProgressSnapshot {
	if t == nil {
		return ProgressSnapshot{ETASec: -1}
	}
	h := t.hdr.Load()
	if h == nil {
		return ProgressSnapshot{ETASec: -1}
	}
	s := ProgressSnapshot{
		Label:       h.label,
		CellsTotal:  len(h.cells),
		UnitsTotal:  h.total,
		UnitsDone:   t.done.Load(),
		UnitsFailed: t.failed.Load(),
		ElapsedSec:  time.Since(h.start).Seconds(),
		ETASec:      -1,
		Finished:    t.finished.Load(),
		Cells:       make([]CellProgress, len(h.cells)),
	}
	if msg := t.errMsg.Load(); msg != nil {
		s.Err = *msg
	}
	if c := t.cache.Load(); c != nil {
		st := c.Stats()
		s.Cache = &st
	}
	for i, c := range h.cells {
		d := c.done.Load()
		s.Cells[i] = CellProgress{Name: c.name, RepsDone: int(d), RepsTotal: int(c.units)}
		if d >= c.units && c.units > 0 {
			s.CellsDone++
		}
	}
	if s.Finished {
		s.ETASec = 0
	} else if s.UnitsDone > 0 && s.UnitsTotal > s.UnitsDone {
		perUnit := s.ElapsedSec / float64(s.UnitsDone)
		s.ETASec = perUnit * float64(s.UnitsTotal-s.UnitsDone)
	}
	return s
}

// Metrics returns everything the live monitor exports, as one snapshot:
// the merged metrics and attribution series (AttrSnapshot.Metrics) of
// every repetition completed so far, plus the ilan_campaign_* progress
// and cache series. Counters and histograms are sums over completed reps,
// so successive scrapes see monotonically non-decreasing counter values;
// gauge averages may move as reps land (merge order follows completion
// order, which under Jobs > 1 is not the deterministic rep order — live
// metrics are a monitoring surface, not part of the campaign's
// byte-determinism contract). Nil on a nil tracker.
func (t *Tracker) Metrics() *obs.Snapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	snaps, attrs := slices.Clone(t.snaps), slices.Clone(t.attrs)
	t.mu.Unlock()
	m := obs.Merge(snaps)
	if m == nil {
		m = &obs.Snapshot{}
	}
	if m.Counters == nil {
		m.Counters = make(map[string]float64)
	}
	if m.Gauges == nil {
		m.Gauges = make(map[string]float64)
	}
	if a := obs.MergeAttr(attrs).Metrics(); a != nil {
		maps.Copy(m.Counters, a.Counters)
		maps.Copy(m.Gauges, a.Gauges)
	}
	p := t.Snapshot()
	m.Counters["ilan_campaign_units_total"] = float64(p.UnitsTotal)
	m.Counters["ilan_campaign_units_done"] = float64(p.UnitsDone)
	m.Counters["ilan_campaign_units_failed"] = float64(p.UnitsFailed)
	m.Gauges["ilan_campaign_cells_total"] = float64(p.CellsTotal)
	m.Gauges["ilan_campaign_cells_done"] = float64(p.CellsDone)
	if c := p.Cache; c != nil {
		m.Counters["ilan_campaign_cache_hits_total"] = float64(c.Hits)
		m.Counters["ilan_campaign_cache_misses_total"] = float64(c.Misses)
		m.Counters["ilan_campaign_cache_evictions_total"] = float64(c.Evictions)
		m.Counters["ilan_campaign_cache_errors_total"] = float64(c.Errors)
	}
	return m
}

// ProgressEvent is one live campaign event for the SSE stream.
type ProgressEvent struct {
	// Type is "cell" (a cell completed all reps), "phase" (an ILAN loop
	// changed search phase inside a completed rep), or "done" (campaign
	// terminal).
	Type string `json:"type"`
	Cell string `json:"cell,omitempty"`
	// Cell-completion fields.
	RepsDone  int `json:"reps_done,omitempty"`
	RepsTotal int `json:"reps_total,omitempty"`
	// Phase-transition fields (from the rep's decision trace, stamped in
	// virtual time).
	Rep       int     `json:"rep,omitempty"`
	LoopID    int     `json:"loop,omitempty"`
	K         int     `json:"k,omitempty"`
	Phase     string  `json:"phase,omitempty"`
	Threads   int     `json:"threads,omitempty"`
	StealFull bool    `json:"steal_full,omitempty"`
	TimeSec   float64 `json:"t,omitempty"`
	// Err carries the campaign error on a "done" event.
	Err string `json:"error,omitempty"`
}

// Subscribe registers a live event consumer. The returned channel is
// buffered; events overflowing it are dropped (the campaign never blocks
// on a consumer). cancel unregisters and must be called exactly once.
func (t *Tracker) Subscribe() (<-chan ProgressEvent, func()) {
	if t == nil {
		ch := make(chan ProgressEvent)
		close(ch)
		return ch, func() {}
	}
	ch := make(chan ProgressEvent, 256)
	t.mu.Lock()
	if t.subs == nil {
		t.subs = make(map[int]chan ProgressEvent)
	}
	id := t.nextSub
	t.nextSub++
	t.subs[id] = ch
	t.mu.Unlock()
	return ch, func() {
		t.mu.Lock()
		delete(t.subs, id)
		t.mu.Unlock()
	}
}

// publish delivers an event to every subscriber without blocking.
func (t *Tracker) publish(ev ProgressEvent) {
	t.mu.Lock()
	for _, ch := range t.subs {
		select {
		case ch <- ev:
		default: // consumer is behind; drop rather than stall the pool
		}
	}
	t.mu.Unlock()
}

// publishPhaseEvents derives scheduler phase-transition events from one
// completed rep's decision trace: within the rep, every change of a
// loop's search phase (and the first decision of each loop) becomes one
// event, stamped with the decision's virtual time.
func (t *Tracker) publishPhaseEvents(cell string, snap *obs.Snapshot) {
	if len(snap.Decisions) == 0 {
		return
	}
	type loopPhase struct {
		phase string
		seen  bool
	}
	last := make(map[int]loopPhase, 4)
	for _, d := range snap.Decisions {
		lp := last[d.LoopID]
		if lp.seen && lp.phase == d.Phase {
			continue
		}
		last[d.LoopID] = loopPhase{phase: d.Phase, seen: true}
		t.publish(ProgressEvent{
			Type: "phase", Cell: cell, Rep: d.Rep, LoopID: d.LoopID, K: d.K,
			Phase: d.Phase, Threads: d.Threads, StealFull: d.StealFull,
			TimeSec: d.TimeSec,
		})
	}
}
