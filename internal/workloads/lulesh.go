package workloads

import "github.com/ilan-sched/ilan/internal/looplang"

// lulesh models the Livermore unstructured Lagrangian explicit
// shock-hydrodynamics proxy app (problem size 400, 200 iterations in the
// paper). One Lagrange leapfrog step runs a diverse set of loops — exactly
// why the paper uses it: a single global configuration cannot fit all of
// them, while ILAN tunes each taskloop separately.
//
// The loop set mirrors the dominant phases of CalcForceForNodes /
// LagrangeNodal / LagrangeElements / CalcTimeConstraints:
//
//	force      — stress + hourglass force assembly: compute-rich streaming.
//	accel-pos  — nodal acceleration/velocity/position updates: pure
//	             bandwidth, trivially balanced.
//	kinematics — element kinematics with node-to-element indirection
//	             (gather over the nodal arrays).
//	material   — EOS/material model application: iteration counts vary per
//	             element region, the main imbalance source.
//	timeconstr — courant/hydro time-constraint reductions: short and
//	             memory-light.
func lulesh(cls Class) *looplang.Document {
	iters := scaled(cls, 4096, 512)
	tasks := scaled(cls, 256, 32)
	return &looplang.Document{
		Name: "LULESH", Steps: scaledSteps(cls, 35),
		Regions: []region{
			{Name: "lulesh.force"}, {Name: "lulesh.nodal"}, {Name: "lulesh.kinematics"},
			{Name: "lulesh.nodes", SizeMB: 256}, {Name: "lulesh.material"}, {Name: "lulesh.dt"},
		},
		Loops: []loop{
			{Name: "force", Iters: iters, Tasks: tasks, ComputeMicros: 120, Streams: stream("lulesh.force", 40)},
			{Name: "accel-pos", Iters: iters, Tasks: tasks, ComputeMicros: 50, Streams: stream("lulesh.nodal", 80)},
			{Name: "kinematics", Iters: iters, Tasks: tasks, ComputeMicros: 90, Streams: stream("lulesh.kinematics", 70),
				Spans: gather("lulesh.nodes", 6)},
			{Name: "material", Iters: iters, Tasks: tasks, ComputeMicros: 100, Streams: stream("lulesh.material", 40),
				Imbalance: &imbalance{Blocks: 64, Amplitude: 0.35, Salt: 3}},
			{Name: "timeconstr", Iters: iters, Tasks: tasks, ComputeMicros: 35, Streams: stream("lulesh.dt", 60)},
		},
	}
}

// matmul models the dense matrix-multiplication kernel (loop size 3500,
// 200 iterations in the paper): very high arithmetic intensity, a tiled
// working set that lives in the L3, near-perfect scaling — the benchmark
// on which ILAN has nothing to win and pays its exploration cost, the
// paper's only slowdown.
func matmul(cls Class) *looplang.Document {
	return &looplang.Document{
		Name: "Matmul", Steps: scaledSteps(cls, 45),
		Regions: []region{
			{Name: "matmul.c"},
			{Name: "matmul.b", SizeMB: 24}, // resident tile set, reused every step
		},
		Loops: []loop{{Name: "mm-tile", Iters: scaled(cls, 512, 64), Tasks: scaled(cls, 128, 16), ComputeMicros: 290,
			Streams: stream("matmul.c", 24), Spans: transpose("matmul.b", 4)}},
	}
}
