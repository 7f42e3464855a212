package memsys

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"github.com/ilan-sched/ilan/internal/topology"
)

// cacheFixture builds a cache set whose CCDs hold capacity blocks each,
// over a machine with the given (even) CCD count, and one region per entry
// of blocks with that many placement blocks.
func cacheFixture(tb testing.TB, capacity, ccds int, disabled bool, blocks ...int) (*CacheSet, []*Region) {
	tb.Helper()
	topo, err := topology.New(topology.Spec{
		Sockets: 1, NodesPerSocket: 2, CoresPerNode: ccds / 2, CoresPerCCD: 1,
		L3BytesPerCCD:      int64(capacity) * BlockSize,
		SameSocketDistance: 1.4, CrossSocketDistance: 2.2,
	})
	if err != nil {
		tb.Fatal(err)
	}
	newSet := NewCacheSet
	if disabled {
		newSet = NewDisabledCacheSet
	}
	mem := NewMemory(topo)
	cs := newSet(mem)
	regions := make([]*Region, len(blocks))
	for i, n := range blocks {
		regions[i] = mem.NewRegion(fmt.Sprintf("r%d", i), int64(n)*BlockSize)
	}
	return cs, regions
}

// cacheCCDCounts are the CCD counts the differential test draws from:
// the presets' 4 to 32, and counts at and past one 64-bit word per block.
var cacheCCDCounts = []int{2, 4, 16, 32, 64, 66, 130}

// diffCache runs an operation string on CacheSet and on the reference and
// fails at the first divergence. The first bytes choose the capacity
// (1–32 blocks), the CCD count, whether the model is disabled, and up to
// four regions of 1–48 blocks; every following byte triple is one touch
// (CCD, block) or, when its first byte is 0xff, a Reset. After every touch
// the hit or miss, both CCD counters, and the residency of one more block
// on the touched CCD must agree; at each Reset and at the end, so must the
// residency of every block on every CCD and every counter.
func diffCache(t testing.TB, ops []byte) {
	t.Helper()
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	capacity := 1 + next()%32
	ccds := cacheCCDCounts[next()%len(cacheCCDCounts)]
	disabled := next()%8 == 0
	blocks := make([]int, 1+next()%4)
	total := 0
	for i := range blocks {
		blocks[i] = 1 + next()%48
		total += blocks[i]
	}
	cs, regions := cacheFixture(t, capacity, ccds, disabled, blocks...)
	ref := newRefCacheSet(ccds, capacity, disabled)
	desc := fmt.Sprintf("capacity %d, %d CCDs, disabled %v, blocks %v", capacity, ccds, disabled, blocks)
	// block maps a global block number onto (region, block).
	block := func(g int) (*Region, int) {
		g %= total
		for _, r := range regions {
			if g < r.NumBlocks() {
				return r, g
			}
			g -= r.NumBlocks()
		}
		panic("unreachable")
	}
	checkAll := func(step int) {
		t.Helper()
		for ccd := 0; ccd < ccds; ccd++ {
			for g := 0; g < total; g++ {
				r, b := block(g)
				if got, want := cs.Contains(ccd, r, b), ref.contains(ccd, r.ID(), b); got != want {
					t.Fatalf("step %d: Contains(%d, %s, %d) = %v, reference %v (%s)", step, ccd, r.Name(), b, got, want, desc)
				}
			}
			h, m := cs.CCDStats(ccd)
			if h != ref.hits[ccd] || m != ref.misses[ccd] {
				t.Fatalf("step %d: CCDStats(%d) = %d/%d, reference %d/%d (%s)", step, ccd, h, m, ref.hits[ccd], ref.misses[ccd], desc)
			}
		}
		if h, m := cs.Stats(); h != ref.totHits || m != ref.totMisses {
			t.Fatalf("step %d: Stats = %d/%d, reference %d/%d (%s)", step, h, m, ref.totHits, ref.totMisses, desc)
		}
	}
	for step := 0; len(ops) > 0; step++ {
		op, x, y := next(), next(), next()
		if op == 0xff {
			checkAll(step)
			cs.Reset()
			ref.reset()
			checkAll(step)
			continue
		}
		ccd := (op<<8 | x) % ccds
		r, b := block(y)
		if got, want := cs.Touch(ccd, r, b), ref.touch(ccd, r.ID(), b); got != want {
			t.Fatalf("step %d: Touch(%d, %s, %d) = %v, reference %v (%s)", step, ccd, r.Name(), b, got, want, desc)
		}
		h, m := cs.CCDStats(ccd)
		if h != ref.hits[ccd] || m != ref.misses[ccd] {
			t.Fatalf("step %d: CCDStats(%d) = %d/%d, reference %d/%d (%s)", step, ccd, h, m, ref.hits[ccd], ref.misses[ccd], desc)
		}
		r2, b2 := block(op + x)
		if got, want := cs.Contains(ccd, r2, b2), ref.contains(ccd, r2.ID(), b2); got != want {
			t.Fatalf("step %d: Contains(%d, %s, %d) = %v, reference %v (%s)", step, ccd, r2.Name(), b2, got, want, desc)
		}
	}
	checkAll(-1)
}

// randomCacheScript draws an operation string for diffCache. The touches
// concentrate on a few CCDs and on a working set near the capacity, so
// scripts mix hits, misses and evictions instead of thrashing.
func randomCacheScript(rng *rand.Rand, touches int) []byte {
	ops := []byte{byte(rng.IntN(256)), byte(rng.IntN(256)), byte(rng.IntN(256)), byte(rng.IntN(256))}
	for i := 0; i < 4; i++ {
		ops = append(ops, byte(rng.IntN(256)))
	}
	capacity := 1 + int(ops[0])%32
	working := max(1, capacity-3+rng.IntN(8))
	hot := 1 + rng.IntN(3)
	for i := 0; i < touches; i++ {
		if rng.IntN(200) == 0 {
			ops = append(ops, 0xff, 0, 0)
			continue
		}
		ccd := rng.IntN(hot)
		if rng.IntN(8) == 0 {
			ccd = rng.IntN(1 << 15)
		}
		ops = append(ops, byte(ccd>>8), byte(ccd), byte(rng.IntN(working)))
	}
	return ops
}

// TestCacheMatchesReference holds the residency-bit cache set to the
// linear-scan LRU it replaced, over random touch sequences on 1 to 4
// regions, 2 to 130 CCDs, capacities 1 to 32 and the disabled model:
// the same hit or miss on every touch, the same Contains, the same
// counters.
func TestCacheMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 5))
	for i := 0; i < 400; i++ {
		diffCache(t, randomCacheScript(rng, 600))
	}
}

// FuzzCacheOrder applies the same check to fuzzer-chosen operation
// strings.
//
//	go test -fuzz=FuzzCacheOrder -fuzztime=30s ./internal/memsys
func FuzzCacheOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3<<12 {
			ops = ops[:3<<12]
		}
		diffCache(t, ops)
	})
}

// TestPropertyCacheMatchesReference is the same comparison driven by
// testing/quick's own byte strings, on a two-CCD machine.
func TestPropertyCacheMatchesReference(t *testing.T) {
	f := func(capRaw uint8, stream []uint8) bool {
		capacity := 1 + int(capRaw%16)
		cs, regions := cacheFixture(t, capacity, 2, false, 32, 32, 32, 32, 32, 32, 32, 32)
		ref := newRefCacheSet(2, capacity, false)
		for _, b := range stream {
			r, blk := regions[int(b)/32], int(b)%32
			if cs.Touch(0, r, blk) != ref.touch(0, r.ID(), blk) {
				return false
			}
		}
		// Final residency must match too.
		for _, r := range regions {
			for blk := 0; blk < r.NumBlocks(); blk++ {
				if cs.Contains(0, r, blk) != ref.contains(0, r.ID(), blk) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// resident counts one CCD's resident blocks.
func resident(cs *CacheSet, ccd int, regions []*Region) int {
	n := 0
	for _, r := range regions {
		for b := 0; b < r.NumBlocks(); b++ {
			if cs.Contains(ccd, r, b) {
				n++
			}
		}
	}
	return n
}

// TestPropertyCacheNeverExceedsCapacity: residency is bounded under any
// access stream.
func TestPropertyCacheNeverExceedsCapacity(t *testing.T) {
	f := func(capRaw uint8, stream []uint16) bool {
		capacity := 1 + int(capRaw%32)
		cs, regions := cacheFixture(t, capacity, 2, false, 64, 64, 64, 64)
		for _, b := range stream {
			cs.Touch(1, regions[int(b>>8)%4], int(b&0x3f))
			if resident(cs, 1, regions) > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCyclicAccessThrashes: a cyclic walk over more blocks than
// the capacity must never hit — the behaviour that keeps out-of-cache
// stream benchmarks honest.
func TestPropertyCyclicAccessThrashes(t *testing.T) {
	f := func(capRaw, extraRaw uint8, rounds uint8) bool {
		capacity := 1 + int(capRaw%8)
		blocks := capacity + 1 + int(extraRaw%8)
		cs, regions := cacheFixture(t, capacity, 2, false, blocks)
		for round := 0; round < 2+int(rounds%4); round++ {
			for b := 0; b < blocks; b++ {
				if cs.Touch(0, regions[0], b) {
					return false // a cyclic over-capacity walk hit
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
