package workloads

import "github.com/ilan-sched/ilan/internal/looplang"

// This file models three further NPB kernels the paper does not evaluate —
// EP, MG, and IS — offered as extension workloads (see Extensions). They
// stress corners the seven paper benchmarks do not:
//
//	EP — embarrassingly parallel: zero shared data, perfect scaling. The
//	     null case: every scheduler should tie, and any ILAN overhead
//	     shows up undiluted.
//	MG — multigrid V-cycle: the same timestep runs loops at several grid
//	     levels, from a large fine-grid smoother to coarse grids with few
//	     iterations — exercising per-taskloop configuration independence
//	     (each level gets its own PTT entry) and tiny-loop scheduling.
//	IS — integer bucket sort: a histogram gather over the whole key range
//	     plus a permutation pass with scattered writes; bandwidth-starved
//	     and irregular, a further moldability candidate.

// ep describes the embarrassingly-parallel kernel: batches of pseudo-random
// pair generation with a tiny private accumulation buffer and no shared
// traffic at all.
func ep(cls Class) *looplang.Document {
	return &looplang.Document{
		Name: "EP", Steps: scaledSteps(cls, 40),
		Regions: []region{{Name: "ep.acc"}},
		Loops: []loop{{Name: "generate", Iters: scaled(cls, 4096, 512), Tasks: scaled(cls, 256, 32), ComputeMicros: 160,
			Streams: stream("ep.acc", 4)}},
	}
}

// mg describes the multigrid V-cycle: a fine-grid smoother and residual, a
// restriction to a mid grid, a coarse-grid solve with few iterations, and
// a prolongation back. Each level is a distinct taskloop with its own
// configuration.
func mg(cls Class) *looplang.Document {
	fineIters := scaled(cls, 4096, 512)
	midIters := fineIters / 8
	coarseIters := fineIters / 64
	fineTasks := scaled(cls, 256, 32)
	midTasks := fineTasks / 4
	coarseTasks := min(fineTasks/16, coarseIters)
	return &looplang.Document{
		Name: "MG", Steps: scaledSteps(cls, 40),
		Regions: []region{{Name: "mg.fine"}, {Name: "mg.mid"}, {Name: "mg.coarse"}},
		Loops: []loop{
			{Name: "smooth-fine", Iters: fineIters, Tasks: fineTasks, ComputeMicros: 110, Streams: stream("mg.fine", 120)},
			{Name: "residual", Iters: fineIters, Tasks: fineTasks, ComputeMicros: 70, Streams: stream("mg.fine", 120)},
			{Name: "restrict", Iters: midIters, Tasks: midTasks, ComputeMicros: 90, Streams: stream("mg.mid", 120)},
			{Name: "solve-coarse", Iters: coarseIters, Tasks: coarseTasks, ComputeMicros: 60,
				Streams: stream("mg.coarse", 120)},
			{Name: "prolongate", Iters: midIters, Tasks: midTasks, ComputeMicros: 80, Streams: stream("mg.mid", 120)},
		},
	}
}

// is describes the integer bucket sort: key counting gathers irregularly
// over the whole key array; the rank/permute pass streams keys out while
// scattering into buckets spread across every node.
func is(cls Class) *looplang.Document {
	iters := scaled(cls, 640, 80)
	tasks := scaled(cls, 160, 20)
	return &looplang.Document{
		Name: "IS", Steps: scaledSteps(cls, 45),
		Regions: []region{{Name: "is.keys", SizeMB: 256}, {Name: "is.buckets", SizeMB: 128}, {Name: "is.out"}},
		Loops: []loop{
			{Name: "histogram", Iters: iters, Tasks: tasks, ComputeMicros: 30, Spans: gather("is.keys", 180)},
			{Name: "rank", Iters: iters, Tasks: tasks, ComputeMicros: 40, Streams: stream("is.out", 100),
				Spans: gather("is.buckets", 120), Imbalance: &imbalance{Blocks: 64, Amplitude: 0.35, Salt: 4}},
		},
	}
}
