package machine

import (
	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/obs"
)

// Attribution: the fluid model's rates are piecewise-constant between
// instants and every component of a task drains proportionally (advance
// multiplies compute and bytes by the same keep factor). Any quantity that
// is positively homogeneous of degree one in a task's own remaining work
// and depends only on its own constant per-run rates therefore telescopes
// across refresh intervals: if X_i is its value for the work remaining at
// instant i, then Σ_i frac_i·X_i = X_0 exactly. Three such quantities
// decompose a task's elapsed time (DESIGN.md §14):
//
//	compute wall  = compute0 / coreSpeed
//	solo memory   = memory time with only the task's own load on each of
//	                its actual resources (tmSolo)
//	local memory  = solo memory time with all traffic moved to one
//	                node-local controller (tmLocal)
//
// so the terms need only a constant amount of work at Exec (compute the
// two counterfactual times from the resolved demand) and at completion
// (subtract), with zero per-refresh cost and zero allocations — the fields
// live on the pooled fluidTask.
//
// The per-task decomposition derived at completion:
//
//	ideal compute = compute0                      (jittered, unit speed)
//	core speed    = compute0/speed − compute0     (signed)
//	ideal memory  = tmLocal
//	locality      = tmSolo − tmLocal              (signed; negative when
//	                spreading across controllers beats one local one)
//	interference  = (elapsed − compute0/speed) − tmSolo   (≥ 0 pointwise)
//	residual      = elapsed − Σ above             (float closure, ~ulps)

// EnableAttr switches on per-task virtual-time attribution. Like
// EnableObs it is idempotent, must be called before the first Exec, and is
// output-neutral: attribution draws no randomness and schedules no events,
// so every other observable of the run is byte-identical with it on or
// off.
func (m *Machine) EnableAttr() {
	if m.attrOn {
		return
	}
	m.attrOn = true
	// One interference accumulator per resource plus one for the core's
	// aggregate memory port (the "port" pseudo-resource).
	m.attrInterf = make([]float64, m.res.Count()+1)
}

// AttrEnabled reports whether attribution accounting is on.
func (m *Machine) AttrEnabled() bool { return m.attrOn }

// LastTaskAttr returns the attribution of the most recently completed task
// (Tasks is 1). The machine overwrites it at every completion, so probes
// read it synchronously from the completion callback (taskrt does). Only
// meaningful while attribution is enabled and at least one task has
// completed.
func (m *Machine) LastTaskAttr() obs.TaskAttr { return m.lastAttr }

// attrResolve prices the two counterfactual memory times for a task whose
// demand has just been resolved, storing them on the pooled task. Called
// from Exec after the task's per-resource weights are final.
func (m *Machine) attrResolve(ft *fluidTask, jitter float64) {
	// Solo: the task alone on an undisturbed machine. Each resource then
	// carries only the task's own load (load = loadW) and the task is the
	// only sharer (svc = weight, so its share is the full effective
	// bandwidth) — exactly the floors remainingTime applies.
	var solo, ctrlBytes float64
	bneck := len(m.attrInterf) - 1 // default: the core port
	for i := range ft.res {
		e := &ft.res[i]
		if e.bytes <= 0 {
			continue
		}
		bw := m.res.LinkBW
		if e.r < m.nCtrl {
			ctrlBytes += e.bytes
			bw = m.res.ControllerBW
		}
		if t := e.bytes / m.res.Eff(bw, e.loadW); t > solo {
			solo = t
			bneck = e.r
		}
	}
	if port := ctrlBytes / m.res.CoreStreamBW; port > solo {
		solo = port
		bneck = len(m.attrInterf) - 1
	}
	ft.attrSolo = solo
	ft.attrBneck = int32(bneck)

	// Local: the same traffic with every byte served by a single
	// node-local controller (distance 1, no link hops).
	lb := m.demand.LocalBytes * jitter
	ft.attrLocal = 0
	if lb > 0 {
		load := m.demand.LocalLoad / m.demand.LocalBytes
		tl := lb / m.res.Eff(m.res.ControllerBW, load)
		if port := lb / m.res.CoreStreamBW; port > tl {
			tl = port
		}
		ft.attrLocal = tl
	}
}

// attrComplete derives the completed task's decomposition and folds it into
// the run totals. Called from complete before the task is recycled.
func (m *Machine) attrComplete(ft *fluidTask, elapsed float64) {
	speed := m.coreSpeed[ft.core]
	computeWall := ft.compute0 / speed
	s := obs.TaskAttr{
		Tasks:           1,
		ElapsedSec:      elapsed,
		IdealComputeSec: ft.compute0,
		CoreSpeedSec:    computeWall - ft.compute0,
		IdealMemorySec:  ft.attrLocal,
		LocalitySec:     ft.attrSolo - ft.attrLocal,
		InterferenceSec: (elapsed - computeWall) - ft.attrSolo,
	}
	s.ResidualSec = elapsed - s.IdealComputeSec - s.CoreSpeedSec -
		s.IdealMemorySec - s.LocalitySec - s.InterferenceSec
	m.lastAttr = s
	m.attrTask.Add(s)
	m.attrInterf[ft.attrBneck] += s.InterferenceSec
}

// TaskAttr returns the run's accumulated per-task attribution totals.
func (m *Machine) TaskAttr() obs.TaskAttr { return m.attrTask }

// FillAttr exports the machine-side attribution state (task totals and the
// per-resource interference split) into the snapshot. The runtime adds its
// loop-level terms on top.
func (m *Machine) FillAttr(a *obs.AttrSnapshot) {
	if !m.attrOn {
		return
	}
	a.Task = m.attrTask
	for r, v := range m.attrInterf {
		if v == 0 {
			continue
		}
		name := "port"
		if r < m.res.Count() {
			name = m.res.Name(memsys.ResourceID(r))
		}
		if a.Interference == nil {
			a.Interference = make(map[string]float64)
		}
		a.Interference[name] += v
	}
}
