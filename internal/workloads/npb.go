package workloads

import "github.com/ilan-sched/ilan/internal/looplang"

// This file models the five NAS Parallel Benchmarks of the evaluation
// (the Löff et al. C++ translation, class D shapes, loops converted from
// `omp for` to `omp taskloop` as in the paper's methodology).
//
// The models preserve what the scheduler can observe:
//
//	FT — balanced, compute-rich FFT stages plus an all-to-all transpose
//	     (long-distance communication); profits from locality, not from
//	     molding.
//	BT — block tri-diagonal sweeps; the most compute-rich pseudo-app,
//	     balanced, locality-sensitive.
//	CG — sparse matrix-vector products: irregular gather over the whole
//	     operand vector, block-structured row imbalance; profits from
//	     molding (memory contention) and from dynamic load balancing.
//	LU — Gauss-Seidel wavefront sweeps: smooth pipeline imbalance,
//	     moderate memory intensity.
//	SP — scalar penta-diagonal solver: the most bandwidth-starved kernel,
//	     strong irregular traffic; the paper's biggest moldability win.
//
// Stream-swept grids are sized well past the machine's aggregate L3
// (class D working sets dwarf the caches), so per-step cache reuse is
// marginal and locality gains come from NUMA distance, as on the real
// platform. The CG operand vector and SP plane buffers are shared regions
// gathered from every controller.
//
// The block-structured imbalances use looplang's "blocks" profile: coarse
// blocks punish static chunking (work-sharing) while dynamic task
// scheduling rebalances them. Each model gives its profile its own salt.

// ft describes the 3-D fast Fourier transform benchmark: per timestep an
// evolve loop, two FFT stages streaming over the grid, and a transpose with
// all-to-all traffic. FT iterations were raised from 25 to 200 in the
// paper; steps here follow the same "many repetitions" regime.
func ft(cls Class) *looplang.Document {
	iters := scaled(cls, 4096, 512)
	tasks := scaled(cls, 256, 32)
	return &looplang.Document{
		Name: "FT", Steps: scaledSteps(cls, 40),
		Regions: []region{{Name: "ft.u0"}, {Name: "ft.u1"}, {Name: "ft.twiddle", SizeMB: 512}},
		Loops: []loop{
			{Name: "evolve", Iters: iters, Tasks: tasks, ComputeMicros: 120, Streams: stream("ft.u0", 110)},
			{Name: "fft-x", Iters: iters, Tasks: tasks, ComputeMicros: 180, Streams: stream("ft.u0", 110)},
			{Name: "transpose", Iters: iters, Tasks: tasks, ComputeMicros: 60, Spans: transpose("ft.twiddle", 40)},
			{Name: "fft-y", Iters: iters, Tasks: tasks, ComputeMicros: 180, Streams: stream("ft.u1", 110)},
		},
	}
}

// bt describes the block tri-diagonal solver: a right-hand-side assembly
// and three directional sweeps per timestep. BT is the most compute-rich of
// the pseudo-applications; its ILAN gain comes from hierarchical locality.
func bt(cls Class) *looplang.Document {
	iters := scaled(cls, 4096, 512)
	tasks := scaled(cls, 256, 32)
	return &looplang.Document{
		Name: "BT", Steps: scaledSteps(cls, 40),
		Regions: []region{{Name: "bt.rhs"}, {Name: "bt.ux"}, {Name: "bt.uy"}, {Name: "bt.uz"}},
		Loops: []loop{
			{Name: "rhs", Iters: iters, Tasks: tasks, ComputeMicros: 110, Streams: stream("bt.rhs", 110)},
			{Name: "x-solve", Iters: iters, Tasks: tasks, ComputeMicros: 120, Streams: stream("bt.ux", 100)},
			{Name: "y-solve", Iters: iters, Tasks: tasks, ComputeMicros: 120, Streams: stream("bt.uy", 100)},
			{Name: "z-solve", Iters: iters, Tasks: tasks, ComputeMicros: 125, Streams: stream("bt.uz", 100)},
		},
	}
}

// cg describes the conjugate-gradient kernel: the sparse matrix-vector
// product gathers irregularly from the whole operand vector (poor line
// utilization, traffic on every controller), with block-structured
// row-length imbalance; two streaming vector updates accompany it.
func cg(cls Class) *looplang.Document {
	iters := scaled(cls, 768, 96)
	vecIters := scaled(cls, 2048, 256)
	tasks := scaled(cls, 192, 24)
	vecTasks := scaled(cls, 128, 16)
	return &looplang.Document{
		Name: "CG", Steps: scaledSteps(cls, 45),
		Regions: []region{{Name: "cg.a"}, {Name: "cg.x", SizeMB: 192}, {Name: "cg.p"}, {Name: "cg.q"}},
		Loops: []loop{
			{Name: "spmv", Iters: iters, Tasks: tasks, ComputeMicros: 180, Streams: stream("cg.a", 40),
				Spans: gather("cg.x", 200), Imbalance: &imbalance{Blocks: 24, Amplitude: 0.5, Salt: 1}},
			{Name: "axpy-p", Iters: vecIters, Tasks: vecTasks, ComputeMicros: 22, Streams: stream("cg.p", 100)},
			{Name: "axpy-q", Iters: vecIters, Tasks: vecTasks, ComputeMicros: 22, Streams: stream("cg.q", 100)},
		},
	}
}

// lu describes the lower-upper Gauss-Seidel solver: two wavefront sweeps
// with a smooth pipeline imbalance (the wavefront fills and drains) plus an
// RHS loop with a small indirect component.
func lu(cls Class) *looplang.Document {
	iters := scaled(cls, 4096, 512)
	tasks := scaled(cls, 256, 32)
	// Wavefront profile: work ramps up, plateaus, and drains.
	wave := &imbalance{Profile: "wavefront"}
	return &looplang.Document{
		Name: "LU", Steps: scaledSteps(cls, 45),
		Regions: []region{{Name: "lu.lower"}, {Name: "lu.upper"}, {Name: "lu.rhs"}, {Name: "lu.flux", SizeMB: 256}},
		Loops: []loop{
			{Name: "blts", Iters: iters, Tasks: tasks, ComputeMicros: 175, Streams: stream("lu.lower", 60), Imbalance: wave},
			{Name: "buts", Iters: iters, Tasks: tasks, ComputeMicros: 175, Streams: stream("lu.upper", 60), Imbalance: wave},
			{Name: "rhs", Iters: iters, Tasks: tasks, ComputeMicros: 150, Streams: stream("lu.rhs", 70),
				Spans: gather("lu.flux", 8)},
		},
	}
}

// sp describes the scalar penta-diagonal solver: the most bandwidth-starved
// benchmark. Its line solves scatter across planes (modelled as gathers
// over shared plane buffers on every controller) with little compute per
// byte, so concurrency beyond the bandwidth optimum hurts — the paper's
// prime moldability case — plus block-structured imbalance.
func sp(cls Class) *looplang.Document {
	iters := scaled(cls, 640, 80)
	tasks := scaled(cls, 160, 20)
	solve := func(name string) loop {
		return loop{Name: name, Iters: iters, Tasks: tasks, ComputeMicros: 60, Streams: stream("sp.u", 60),
			Spans: gather("sp.planes", 200), Imbalance: &imbalance{Blocks: 128, Amplitude: 0.3, Salt: 2}}
	}
	return &looplang.Document{
		Name: "SP", Steps: scaledSteps(cls, 45),
		Regions: []region{{Name: "sp.planes", SizeMB: 384}, {Name: "sp.rhs"}, {Name: "sp.u"}},
		Loops: []loop{
			{Name: "rhs", Iters: iters, Tasks: tasks, ComputeMicros: 24, Streams: stream("sp.rhs", 200)},
			solve("x-solve"),
			solve("y-solve"),
			solve("z-solve"),
		},
	}
}
