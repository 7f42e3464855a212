package machine

import (
	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/sim"
)

// EnableObs switches on the machine-side observability accounting that is
// too expensive to run unconditionally — currently the time-weighted
// resource-load integral behind the queue-depth metric. Call it once,
// before the first Exec; everything else FillObs exports is pulled from
// counters the machine maintains anyway.
func (m *Machine) EnableObs() {
	if m.obsOn {
		return
	}
	m.obsOn = true
	m.loadIntSec = make([]float64, m.res.Count())
	m.lastLoadUpd = make([]sim.Time, m.res.Count())
}

// obsAccumLoad folds the load level held since the last change on resource
// r into the integral. Must be called (under obsOn) immediately before any
// m.ls[r].load mutation.
func (m *Machine) obsAccumLoad(r int) {
	now := m.eng.Now()
	if dt := float64(now - m.lastLoadUpd[r]); dt > 0 {
		m.loadIntSec[r] += m.ls[r].load * dt
		m.lastLoadUpd[r] = now
	}
}

// ControllerBytes reports the cumulative service demand (bytes) placed on
// a node's memory controller so far. It is a monotone counter sampled by
// trace exporters to derive per-node bandwidth time series.
func (m *Machine) ControllerBytes(node int) float64 {
	return m.counters.ResourceBytes[int(m.res.Controller(node))]
}

// ControllerLoad reports the instantaneous queue-pressure load on a node's
// memory controller — the same quantity whose time integral feeds the
// mc_queue_depth gauge.
func (m *Machine) ControllerLoad(node int) float64 {
	return m.ls[int(m.res.Controller(node))].load
}

// FillObs samples the machine's end-of-run state into the run (pull, not
// push: nothing here runs on the simulation hot path). Exported
// metrics, per DESIGN.md §9:
//
//	machine_mc_bytes_total{node=N}         realized traffic on node N's controller
//	machine_mc_demand_bytes_total{node=N}  pre-jitter service demand on the controller
//	machine_mc_utilization{node=N}         realized bytes / (elapsed * peak BW)
//	machine_mc_queue_depth{node=N}         mean queue-pressure load (needs EnableObs)
//	machine_link_bytes_total{link=S}       realized traffic on inter-socket link S
//	machine_link_demand_bytes_total{link=S} pre-jitter demand on the link
//	machine_l3_hits_total{ccd=N}       block-granular L3 hits per CCD
//	machine_l3_misses_total{ccd=N}     block-granular L3 misses per CCD
//	machine_tasks_total, machine_compute_seconds_total,
//	machine_memory_seconds_total       run aggregates
//
// Rates use the engine's current virtual time as elapsed; call after the
// run has drained.
func (m *Machine) FillObs(run *obs.Run) {
	if run == nil {
		return
	}
	elapsed := m.eng.Now().Seconds()
	for r := 0; r < m.res.Count(); r++ {
		id := memsys.ResourceID(r)
		demand := m.counters.ResourceBytes[r]
		realized := m.counters.RealizedBytes[r]
		if m.res.IsController(id) {
			node := obs.Label("node", r)
			run.Add("machine_mc_bytes_total"+node, realized)
			run.Add("machine_mc_demand_bytes_total"+node, demand)
			if elapsed > 0 {
				// Utilization is physical: the traffic the fluid model
				// actually drained (jitter-scaled), not the pre-jitter
				// service demand — under nonzero jitter the two differ.
				run.Set("machine_mc_utilization"+node, realized/(elapsed*m.res.Bandwidth(id)))
			}
			if m.obsOn && elapsed > 0 {
				m.obsAccumLoad(r)
				run.Set("machine_mc_queue_depth"+node, m.loadIntSec[r]/elapsed)
			}
		} else if demand > 0 || realized > 0 {
			link := obs.Label("link", m.res.Name(id))
			run.Add("machine_link_bytes_total"+link, realized)
			run.Add("machine_link_demand_bytes_total"+link, demand)
		}
	}
	for ccd := 0; ccd < m.caches.NumCCDs(); ccd++ {
		hits, misses := m.caches.CCDStats(ccd)
		if hits == 0 && misses == 0 {
			continue
		}
		lbl := obs.Label("ccd", ccd)
		run.Add("machine_l3_hits_total"+lbl, float64(hits))
		run.Add("machine_l3_misses_total"+lbl, float64(misses))
	}
	run.Add("machine_tasks_total", float64(m.counters.Tasks))
	run.Add("machine_compute_seconds_total", m.counters.ComputeSeconds)
	run.Add("machine_memory_seconds_total", m.counters.MemorySeconds)
}
