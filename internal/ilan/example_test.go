package ilan_test

import (
	"fmt"

	"github.com/ilan-sched/ilan/internal/ilan"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
)

// ExampleNew runs one custom taskloop under ILAN on the 16-core test
// machine. Everything executes in deterministic virtual time.
func ExampleNew() {
	m := machine.New(machine.Config{Topo: topology.MustNew(topology.SmallTest()), Seed: 1, Alpha: -1})

	data := m.Memory().NewRegion("data", 128<<20)
	data.PlaceBlocked([]int{0, 1, 2, 3})

	loop := &taskrt.LoopSpec{
		ID: 1, Name: "sweep", Iters: 128, Tasks: 32,
		Demand: func(lo, hi int) (float64, []memsys.Access) {
			return 10e-6 * float64(hi-lo), []memsys.Access{{
				Region: data, Offset: int64(lo) << 20, Bytes: int64(hi-lo) << 20,
				Pattern: memsys.Stream,
			}}
		},
	}
	rt := taskrt.New(m, ilan.MustNew(ilan.DefaultOptions()), taskrt.DefaultCosts())
	prog := &taskrt.Program{Name: "app", Loops: []*taskrt.LoopSpec{loop},
		Sequence: []int{0, 0, 0, 0, 0, 0, 0, 0}}
	res, err := rt.RunProgram(prog)
	if err != nil {
		panic(err)
	}
	fmt.Println("loop executions:", res.LoopExecutions)
	fmt.Println("cores:", m.Topology().NumCores())
	// Output:
	// loop executions: 8
	// cores: 16
}

// ExampleConfig shows the shape of an ILAN taskloop configuration: the
// paper's (num_threads, node_mask, steal_policy) triple.
func ExampleConfig() {
	cfg := ilan.Config{Threads: 16, Nodes: []int{2, 3}, StealFull: false}
	fmt.Println(cfg)
	// Output:
	// {threads=16 mask=0xc steal=strict}
}
