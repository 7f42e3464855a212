// Package sched provides the two reference schedulers ILAN is evaluated
// against in the paper: the default LLVM OpenMP taskloop scheduler
// (topology-blind random work stealing) and the static OpenMP work-sharing
// scheduler (omp for schedule(static)).
package sched

import (
	"github.com/ilan-sched/ilan/internal/taskrt"
)

// freeCores appends the cores no concurrently live loop holds to dst, in
// ascending order. With an empty occupancy this is every core, so all
// schedulers in this package plan exactly as they would in a
// single-program run; under co-running they degrade gracefully to the
// machine's free partition. The schedulers pass the Active slice of a
// runtime-issued plan (Runtime.NewPlan), so the list reuses its capacity.
func freeCores(dst []int, rt *taskrt.Runtime, occ *taskrt.Occupancy) []int {
	n := rt.Topology().NumCores()
	for c := 0; c < n; c++ {
		if !occ.Held(c) {
			dst = append(dst, c)
		}
	}
	return dst
}

// Baseline models the default LLVM OpenMP tasking scheduler: the thread
// encountering the taskloop creates every task into its own deque, all
// threads participate, and idle threads steal from uniformly random victims
// with no topology awareness.
type Baseline struct {
	// MasterCore is the core whose thread encounters the taskloop
	// (default 0, like the primary thread of the parallel region).
	MasterCore int
}

// Name implements taskrt.Scheduler.
func (b *Baseline) Name() string { return "baseline" }

// Plan implements taskrt.Scheduler.
func (b *Baseline) Plan(rt *taskrt.Runtime, spec *taskrt.LoopSpec, occ *taskrt.Occupancy) *taskrt.Plan {
	p := rt.NewPlan()
	p.Active = freeCores(p.Active, rt, occ)
	p.Mode = taskrt.StealFlat
	free := p.Active
	// The encountering thread holds the master deque; if a co-runner owns
	// that core, the first free core stands in.
	master := free[0]
	for _, c := range free {
		if c == b.MasterCore {
			master = b.MasterCore
			break
		}
	}
	for t := 0; t < spec.Tasks; t++ {
		lo, hi := spec.ChunkBounds(t)
		p.Place = append(p.Place, taskrt.TaskPlacement{Lo: lo, Hi: hi, Core: master})
	}
	return p
}

// Observe implements taskrt.Scheduler; the baseline keeps no state.
func (b *Baseline) Observe(*taskrt.Runtime, *taskrt.LoopSpec, *taskrt.LoopStats) {}

// WorkSharing models OpenMP's static work-sharing construct
// (omp for schedule(static)): iterations are divided into one contiguous
// chunk per thread, each chunk is bound to its thread, and there is no
// load balancing of any kind.
type WorkSharing struct{}

// Name implements taskrt.Scheduler.
func (w *WorkSharing) Name() string { return "worksharing" }

// Plan implements taskrt.Scheduler.
func (w *WorkSharing) Plan(rt *taskrt.Runtime, spec *taskrt.LoopSpec, occ *taskrt.Occupancy) *taskrt.Plan {
	p := rt.NewPlan()
	free := freeCores(p.Active, rt, occ)
	n := len(free)
	if n > spec.Iters {
		n = spec.Iters
	}
	p.Active = free[:n]
	p.Mode = taskrt.StealOff
	for i := 0; i < n; i++ {
		lo := i * spec.Iters / n
		hi := (i + 1) * spec.Iters / n
		p.Place = append(p.Place, taskrt.TaskPlacement{Lo: lo, Hi: hi, Core: free[i], Strict: true})
	}
	return p
}

// Observe implements taskrt.Scheduler; work-sharing keeps no state.
func (w *WorkSharing) Observe(*taskrt.Runtime, *taskrt.LoopSpec, *taskrt.LoopStats) {}

// Compile-time interface checks.
var (
	_ taskrt.Scheduler = (*Baseline)(nil)
	_ taskrt.Scheduler = (*WorkSharing)(nil)
)

// resize returns buf with length n, reusing its array when it is large
// enough: the schedulers' per-node tables persist across Plan calls.
func resize(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}
