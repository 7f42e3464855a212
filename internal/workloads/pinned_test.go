package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/taskrt"
)

// programDigest hashes everything the simulator reads from a built
// program: every region's name, size and the home node of each of its
// blocks; every loop's ID, name, iteration and task counts; the sequence;
// and, for every task's chunk and for a fixed set of pseudo-random ranges,
// the float bits of the chunk's compute, each of its accesses and the
// affinity hint.
func programDigest(m *machine.Machine, p *taskrt.Program) string {
	h := sha256.New()
	fmt.Fprintf(h, "program %s\n", p.Name)
	for _, r := range m.Memory().Regions() {
		fmt.Fprintf(h, "region %d %s %d:", r.ID(), r.Name(), r.Size())
		for off := int64(0); off < r.Size(); off += memsys.BlockSize {
			fmt.Fprintf(h, " %d", r.HomeNode(off))
		}
		fmt.Fprintln(h)
	}
	fmt.Fprintf(h, "sequence %v\n", p.Sequence)
	rng := uint64(2025)
	next := func(n int) int { // splitmix64 draw in [0, n)
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return int((z ^ (z >> 31)) % uint64(n))
	}
	for _, l := range p.Loops {
		fmt.Fprintf(h, "loop %d %s %d %d\n", l.ID, l.Name, l.Iters, l.Tasks)
		for ti := 0; ti < l.Tasks; ti++ {
			lo, hi := l.ChunkBounds(ti)
			chunkDigest(h, l, lo, hi)
		}
		for k := 0; k < 32; k++ {
			lo := next(l.Iters)
			chunkDigest(h, l, lo, lo+1+next(l.Iters-lo))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func chunkDigest(h hash.Hash, l *taskrt.LoopSpec, lo, hi int) {
	sec, acc := l.Demand(lo, hi)
	fmt.Fprintf(h, "[%d,%d) %x", lo, hi, math.Float64bits(sec))
	for _, a := range acc {
		fmt.Fprintf(h, " {%d %d %d %d %d}", a.Region.ID(), a.Offset, a.Bytes, a.Span, a.Pattern)
	}
	hint := -1
	if l.Hint != nil {
		hint = l.Hint(lo, hi)
	}
	fmt.Fprintf(h, " hint %d\n", hint)
}

// pinnedPrograms are the programDigests of the ten models on a fresh
// paper-scale machine, as the hand-written Go model functions produced
// them before the models became looplang documents.
var pinnedPrograms = map[string][2]string{ // [ClassTest, ClassPaper]
	"FT": {"2050364048cd000751591f61038ec22c2ff2dc47b8b97098faeb953adae5ae74",
		"3ef7296f488028f60d9a8ecbbe1c4c58c4dcad7621e1382080be1265ad017593"},
	"BT": {"dcb6fd946e0d2a14cc8e3246578e3977a5782872b619fcaa15fe23c94b4078d0",
		"211e2b06cbe0c27caa4b7c973ac062d3146a3101903df9d0dd6adf49a320dc9a"},
	"CG": {"f59c0e7854adf70156cb34dc9fa1283ce967b573c33b01463ccb764f15d2975f",
		"06eec0a7ed6c22012bb7ccb67a37da8902f89baed793643b7e49c81f38ddc363"},
	"LU": {"8bbd77e6834bc35ba313871deb8e168831617d2ea1aba98a101512e1d376ce44",
		"7eb6647fadacec169a478c660648f46d3bb4292864f6ac108bb5fadb82eef1d6"},
	"SP": {"9ef5d41e000fc7042731f312321419131793e3ddc2b4bded9c877dcd73ec1e6b",
		"31a8e59283feaaf3039084ab1cafa7fd269d8d90d6fdb3b13790a46da8b3a16f"},
	"Matmul": {"cbfbd1ea890d84dc68a6697d4ae2aacd4efed4751f3ab56aaae44444460cecfd",
		"5e26efeecfa7a21b8f5a07ca5dcba1d2b6317905f7d99d9d327002dff19e0ec4"},
	"LULESH": {"b9514c752b71ac45f2909b8b5b2a044e05fbb0757067cf9696d97c7ee5f27325",
		"2fc44710564b264c9e9f21fcabf2b8a5f69774be765be1e04b0a9d1a8e32f3a7"},
	"EP": {"16c26cf48bdd87177fb1afe12bd8dd0ed69992021bd02f5e22a47ede22b6abf5",
		"68d6ccd19e30a26a2fd49296c594ce6be9a59bd011d2cb68b8761eb08c6e4ab6"},
	"MG": {"14584e08b4604d3a1917685286d5174e360ffe4feebd87ee98c2aa252d8870bc",
		"b2fff9e3c5fda1c948e7e89d31b3e0d8b703ec1f2ccb530bdfb62db429504c3e"},
	"IS": {"f5830c0a8ab3d31a6b8e8a166fd3dc43b1b2e98960a7dea45629c6988fa46aab",
		"6c0a0b6e22d89dc59d71e6a70f76c7ad9a32662af444892b89851f29d8f6de71"},
}

// TestProgramsPinned: every benchmark at both classes builds exactly the
// program it always has. A moved region, loop, chunk bit or hint fails
// here before it moves a campaign output.
func TestProgramsPinned(t *testing.T) {
	for _, b := range AllWithExtensions() {
		for _, cls := range []Class{ClassTest, ClassPaper} {
			m := newMachine()
			got := programDigest(m, b.Build(m, cls))
			if want := pinnedPrograms[b.Name][cls]; got != want {
				t.Errorf("%s at %s class: program digest %s, want %s", b.Name, cls, got, want)
			}
		}
	}
}

// buildAllocBudget is each benchmark's paper-class Build allocation count
// when the models were hand-written Go functions; a test-class build
// allocated one fewer. Building from a document must stay within it.
var buildAllocBudget = map[string]float64{
	"FT": 48, "BT": 52, "CG": 49, "LU": 49, "SP": 58,
	"Matmul": 25, "LULESH": 69, "EP": 19, "MG": 56, "IS": 37,
}

// TestBuildAllocBudget counts the allocations of Build alone, each call on
// a fresh paper-scale machine made beforehand.
func TestBuildAllocBudget(t *testing.T) {
	const runs = 20
	for _, b := range AllWithExtensions() {
		for _, cls := range []Class{ClassTest, ClassPaper} {
			ms := make([]*machine.Machine, runs+1) // AllocsPerRun adds a warm-up call
			for i := range ms {
				ms[i] = newMachine()
			}
			i := 0
			got := testing.AllocsPerRun(runs, func() {
				b.Build(ms[i], cls)
				i++
			})
			budget := buildAllocBudget[b.Name]
			if cls == ClassTest {
				budget--
			}
			t.Logf("%s at %s class: %g allocs per Build (budget %g)", b.Name, cls, got, budget)
			if got > budget {
				t.Errorf("%s at %s class: Build allocates %g times, over its budget of %g", b.Name, cls, got, budget)
			}
		}
	}
}
