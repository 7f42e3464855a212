package memsys

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/ilan-sched/ilan/internal/topology"
)

func testTopo(t *testing.T) *topology.Machine {
	t.Helper()
	return topology.MustNew(topology.SmallTest())
}

func TestNewRegionBlocks(t *testing.T) {
	m := NewMemory(testTopo(t))
	r := m.NewRegion("a", 5*BlockSize+1)
	if r.NumBlocks() != 6 {
		t.Fatalf("NumBlocks = %d, want 6", r.NumBlocks())
	}
	if r.Size() != 5*BlockSize+1 {
		t.Fatalf("Size = %d", r.Size())
	}
	if r.Name() != "a" || r.ID() != 0 {
		t.Fatalf("Name/ID wrong: %q %d", r.Name(), r.ID())
	}
	r2 := m.NewRegion("b", BlockSize)
	if r2.ID() != 1 {
		t.Fatalf("second region ID = %d, want 1", r2.ID())
	}
	if len(m.Regions()) != 2 {
		t.Fatalf("Regions() len = %d, want 2", len(m.Regions()))
	}
}

func TestNewRegionPanicsOnBadSize(t *testing.T) {
	m := NewMemory(testTopo(t))
	defer func() {
		if recover() == nil {
			t.Error("NewRegion(0) did not panic")
		}
	}()
	m.NewRegion("bad", 0)
}

func TestPlaceBlocked(t *testing.T) {
	m := NewMemory(testTopo(t))
	r := m.NewRegion("a", 8*BlockSize)
	r.PlaceBlocked([]int{0, 1, 2, 3})
	// 8 blocks over 4 nodes: 2 each, contiguous.
	wantNodes := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for i, want := range wantNodes {
		if got := r.HomeNode(int64(i) * BlockSize); got != want {
			t.Errorf("block %d home = %d, want %d", i, got, want)
		}
	}
}

func TestPlaceBlockedUneven(t *testing.T) {
	m := NewMemory(testTopo(t))
	r := m.NewRegion("a", 5*BlockSize)
	r.PlaceBlocked([]int{0, 1})
	counts := r.NodeBytes(4)
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("uneven placement left a node empty: %v", counts)
	}
	if counts[0]+counts[1] != 5*BlockSize {
		t.Fatalf("placement lost bytes: %v", counts)
	}
}

func TestPlaceInterleaved(t *testing.T) {
	m := NewMemory(testTopo(t))
	r := m.NewRegion("a", 6*BlockSize)
	r.PlaceInterleaved([]int{1, 3})
	for i := 0; i < 6; i++ {
		want := []int{1, 3}[i%2]
		if got := r.HomeNode(int64(i) * BlockSize); got != want {
			t.Errorf("block %d home = %d, want %d", i, got, want)
		}
	}
}

func TestPlaceOnNode(t *testing.T) {
	m := NewMemory(testTopo(t))
	r := m.NewRegion("a", 3*BlockSize)
	r.PlaceOnNode(2)
	b := r.NodeBytes(4)
	if b[2] != 3*BlockSize {
		t.Fatalf("NodeBytes = %v, want all on node 2", b)
	}
}

func TestNodeBytesPartialLastBlock(t *testing.T) {
	m := NewMemory(testTopo(t))
	r := m.NewRegion("a", BlockSize+100)
	r.PlaceOnNode(0)
	b := r.NodeBytes(4)
	if b[0] != BlockSize+100 {
		t.Fatalf("NodeBytes = %v, want %d on node 0", b, BlockSize+100)
	}
}

func TestHomeNodePanicsOutOfRange(t *testing.T) {
	m := NewMemory(testTopo(t))
	r := m.NewRegion("a", BlockSize)
	defer func() {
		if recover() == nil {
			t.Error("HomeNode out of range did not panic")
		}
	}()
	r.HomeNode(BlockSize)
}

func TestResourceSetEnumeration(t *testing.T) {
	topo := testTopo(t) // 2 sockets x 2 nodes
	rs := NewResourceSet(topo)
	// 4 controllers + 1 link
	if rs.Count() != 5 {
		t.Fatalf("Count = %d, want 5", rs.Count())
	}
	for n := 0; n < 4; n++ {
		if !rs.IsController(rs.Controller(n)) {
			t.Errorf("Controller(%d) not a controller", n)
		}
	}
	link := rs.Link(0, 1)
	if link != 4 || rs.IsController(link) {
		t.Errorf("Link(0,1) = %d, want 4 and not controller", link)
	}
	if rs.Link(1, 0) != link {
		t.Error("Link not symmetric")
	}
	if rs.Name(link) == "" || rs.Name(rs.Controller(0)) == "" {
		t.Error("empty resource names")
	}
}

func TestPerStreamRateSinglStreamIsCoreCapped(t *testing.T) {
	rs := NewResourceSet(testTopo(t))
	r := rs.Controller(0)
	got := rs.PerStreamRate(r, 1)
	if got != rs.CoreStreamBW {
		t.Fatalf("single stream rate = %g, want core cap %g", got, rs.CoreStreamBW)
	}
}

func TestPerStreamRateDecreasesWithStreams(t *testing.T) {
	rs := NewResourceSet(testTopo(t))
	r := rs.Controller(0)
	prev := math.Inf(1)
	for n := 1; n <= 16; n++ {
		rate := rs.PerStreamRate(r, n)
		if rate <= 0 {
			t.Fatalf("rate(%d) = %g", n, rate)
		}
		if rate > prev {
			t.Fatalf("per-stream rate increased at n=%d: %g > %g", n, rate, prev)
		}
		prev = rate
	}
}

// Property: total delivered bandwidth n*rate(n) never exceeds peak, and
// beyond saturation it strictly decreases with more streams (the
// interference effect that justifies moldability).
func TestPropertyContentionTotalBandwidth(t *testing.T) {
	rs := NewResourceSet(testTopo(t))
	r := rs.Controller(0)
	f := func(nRaw uint8) bool {
		n := 1 + int(nRaw%64)
		total := float64(n) * rs.PerStreamRate(r, n)
		if total > rs.Bandwidth(r)+1e-6 {
			return false
		}
		// Once the fair share is below the core cap, adding a stream must
		// reduce total throughput (alpha > 0).
		if rs.Bandwidth(r)/float64(n) < rs.CoreStreamBW {
			totalNext := float64(n+1) * rs.PerStreamRate(r, n+1)
			if totalNext >= total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPerStreamRatePanicsOnZero(t *testing.T) {
	rs := NewResourceSet(testTopo(t))
	defer func() {
		if recover() == nil {
			t.Error("PerStreamRate(0 streams) did not panic")
		}
	}()
	rs.PerStreamRate(rs.Controller(0), 0)
}

func TestCCDCacheLRU(t *testing.T) {
	cs, regions := cacheFixture(t, 2, 2, false, 3)
	r := regions[0]
	if cs.Touch(0, r, 0) {
		t.Fatal("first touch should miss")
	}
	if cs.Touch(0, r, 1) {
		t.Fatal("first touch should miss")
	}
	if !cs.Touch(0, r, 0) {
		t.Fatal("second touch should hit")
	}
	// Insert third block: evicts block 1 (LRU), not block 0.
	cs.Touch(0, r, 2)
	if !cs.Contains(0, r, 0) {
		t.Fatal("block 0 (MRU) was evicted")
	}
	if cs.Contains(0, r, 1) {
		t.Fatal("block 1 (LRU) survived eviction")
	}
}

func TestCacheSetSeparatesCCDs(t *testing.T) {
	mem := NewMemory(testTopo(t))
	cs := NewCacheSet(mem)
	r := mem.NewRegion("a", 8*BlockSize)
	cs.Touch(0, r, 5)
	if cs.Contains(1, r, 5) {
		t.Fatal("block leaked across CCDs")
	}
	if !cs.Contains(0, r, 5) {
		t.Fatal("block not resident in touched CCD")
	}
}

func TestCacheSetHitRateAndReset(t *testing.T) {
	mem := NewMemory(testTopo(t))
	cs := NewCacheSet(mem)
	r := mem.NewRegion("a", 2*BlockSize)
	cs.Touch(0, r, 1) // miss
	cs.Touch(0, r, 1) // hit
	if got := cs.HitRate(); got != 0.5 {
		t.Fatalf("HitRate = %g, want 0.5", got)
	}
	cs.Reset()
	if cs.HitRate() != 0 {
		t.Fatal("HitRate not zero after Reset")
	}
	if cs.Contains(0, r, 1) {
		t.Fatal("cache not emptied by Reset")
	}
	if cs.Touch(0, r, 1) {
		t.Fatal("a block hit after Reset")
	}
}

func newResolver(t *testing.T) (*Resolver, *Memory) {
	t.Helper()
	topo := testTopo(t)
	mem := NewMemory(topo)
	return NewResolver(topo, NewResourceSet(topo), NewCacheSet(mem)), mem
}

func TestResolveLocalStream(t *testing.T) {
	rv, mem := newResolver(t)
	r := mem.NewRegion("a", 4*BlockSize)
	r.PlaceOnNode(0) // core 0 is on node 0
	var d Demand
	rv.Resolve(0, []Access{{Region: r, Offset: 0, Bytes: 2 * BlockSize, Pattern: Stream}}, &d)
	ctrl := int(rv.Resources().Controller(0))
	if math.Abs(d.ResBytes[ctrl]-float64(2*BlockSize)) > 1 {
		t.Fatalf("local stream demand = %g, want %d", d.ResBytes[ctrl], 2*BlockSize)
	}
	for i, b := range d.ResBytes {
		if i != ctrl && b != 0 {
			t.Fatalf("unexpected demand on resource %d: %g", i, b)
		}
	}
}

func TestResolveRemoteSameSocketInflated(t *testing.T) {
	rv, mem := newResolver(t)
	r := mem.NewRegion("a", 2*BlockSize)
	r.PlaceOnNode(1) // same socket as node 0 in SmallTest
	var d Demand
	rv.Resolve(0, []Access{{Region: r, Offset: 0, Bytes: BlockSize, Pattern: Stream}}, &d)
	ctrl := int(rv.Resources().Controller(1))
	want := float64(BlockSize) * 1.4
	if math.Abs(d.ResBytes[ctrl]-want) > 1 {
		t.Fatalf("remote same-socket demand = %g, want %g", d.ResBytes[ctrl], want)
	}
	link := int(rv.Resources().Link(0, 1))
	if d.ResBytes[link] != 0 {
		t.Fatal("same-socket access should not use the link")
	}
}

func TestResolveCrossSocketUsesLink(t *testing.T) {
	rv, mem := newResolver(t)
	r := mem.NewRegion("a", 2*BlockSize)
	r.PlaceOnNode(2) // socket 1; core 0 is socket 0
	var d Demand
	rv.Resolve(0, []Access{{Region: r, Offset: 0, Bytes: BlockSize, Pattern: Stream}}, &d)
	ctrl := int(rv.Resources().Controller(2))
	if math.Abs(d.ResBytes[ctrl]-float64(BlockSize)*2.2) > 1 {
		t.Fatalf("cross-socket controller demand = %g", d.ResBytes[ctrl])
	}
	link := int(rv.Resources().Link(0, 1))
	if math.Abs(d.ResBytes[link]-float64(BlockSize)) > 1 {
		t.Fatalf("link demand = %g, want %d", d.ResBytes[link], BlockSize)
	}
}

func TestResolveCacheHitEliminatesTraffic(t *testing.T) {
	rv, mem := newResolver(t)
	r := mem.NewRegion("a", BlockSize)
	r.PlaceOnNode(0)
	acc := []Access{{Region: r, Offset: 0, Bytes: BlockSize, Pattern: Stream}}
	var d1, d2 Demand
	rv.Resolve(0, acc, &d1)
	rv.Resolve(0, acc, &d2) // same CCD, block now cached
	if d2.TotalBytes() != 0 {
		t.Fatalf("second access still has %g memory bytes", d2.TotalBytes())
	}
	if d2.CacheSeconds <= 0 {
		t.Fatal("cache hit should cost CacheSeconds")
	}
	if d1.CacheSeconds != 0 {
		t.Fatal("cold access should have no cache seconds")
	}
}

func TestResolveDifferentCCDNoReuse(t *testing.T) {
	rv, mem := newResolver(t)
	r := mem.NewRegion("a", BlockSize)
	r.PlaceOnNode(0)
	acc := []Access{{Region: r, Offset: 0, Bytes: BlockSize, Pattern: Stream}}
	var d1, d2 Demand
	rv.Resolve(0, acc, &d1)
	// Core 2 is on CCD 1 in SmallTest (CoresPerCCD=2): cold cache there.
	rv.Resolve(2, acc, &d2)
	if d2.TotalBytes() == 0 {
		t.Fatal("different CCD should not see a cache hit")
	}
}

func TestResolveGatherInflation(t *testing.T) {
	rv, mem := newResolver(t)
	r := mem.NewRegion("a", 4*BlockSize)
	r.PlaceOnNode(0)
	var ds, dg Demand
	rv.Caches().Reset()
	rv.Resolve(0, []Access{{Region: r, Offset: 0, Bytes: BlockSize, Span: 4 * BlockSize, Pattern: Stream}}, &ds)
	rv.Caches().Reset()
	rv.Resolve(0, []Access{{Region: r, Offset: 0, Bytes: BlockSize, Span: 4 * BlockSize, Pattern: Gather}}, &dg)
	ratio := dg.TotalBytes() / ds.TotalBytes()
	want := 1 / gatherLineUtilization
	if math.Abs(ratio-want) > 1e-9 {
		t.Fatalf("gather inflation = %g, want %g", ratio, want)
	}
}

func TestResolveSpanSpreadsTraffic(t *testing.T) {
	rv, mem := newResolver(t)
	r := mem.NewRegion("a", 4*BlockSize)
	r.PlaceBlocked([]int{0, 1, 2, 3})
	var d Demand
	rv.Resolve(0, []Access{{Region: r, Offset: 0, Bytes: 1000, Span: 4 * BlockSize, Pattern: Transpose}}, &d)
	touched := 0
	for n := 0; n < 4; n++ {
		if d.ResBytes[rv.Resources().Controller(n)] > 0 {
			touched++
		}
	}
	if touched != 4 {
		t.Fatalf("span access touched %d controllers, want 4", touched)
	}
}

func TestResolveZeroBytesNoDemand(t *testing.T) {
	rv, mem := newResolver(t)
	r := mem.NewRegion("a", BlockSize)
	var d Demand
	rv.Resolve(0, []Access{{Region: r, Offset: 0, Bytes: 0, Pattern: Stream}}, &d)
	if d.TotalBytes() != 0 || d.CacheSeconds != 0 {
		t.Fatal("zero-byte access produced demand")
	}
}

func TestResolvePanicsOnBadAccess(t *testing.T) {
	rv, mem := newResolver(t)
	r := mem.NewRegion("a", BlockSize)
	var d Demand
	defer func() {
		if recover() == nil {
			t.Error("out-of-range access did not panic")
		}
	}()
	rv.Resolve(0, []Access{{Region: r, Offset: 0, Bytes: 2 * BlockSize, Pattern: Stream}}, &d)
}

func TestDemandReset(t *testing.T) {
	var d Demand
	d.Reset(3)
	d.ResBytes[1] = 5
	d.CacheSeconds = 1
	d.Reset(3)
	if d.CacheSeconds != 0 || d.TotalBytes() != 0 {
		t.Fatal("Reset did not clear demand")
	}
	d.Reset(5)
	if len(d.ResBytes) != 5 {
		t.Fatalf("Reset(5) len = %d", len(d.ResBytes))
	}
}

func TestPatternString(t *testing.T) {
	if Stream.String() != "stream" || Gather.String() != "gather" || Transpose.String() != "transpose" {
		t.Fatal("pattern names wrong")
	}
	if Pattern(9).String() == "" {
		t.Fatal("unknown pattern name empty")
	}
}

// Property: resolved controller demand is conserved — total demanded bytes
// across controllers equals useful bytes x inflation x distance-weighted
// factors, and is never less than the useful bytes on a cold cache.
func TestPropertyResolveConservation(t *testing.T) {
	topo := testTopo(t)
	f := func(blocks uint8, nodeRaw uint8, gather bool) bool {
		nb := 1 + int(blocks%8)
		node := int(nodeRaw) % topo.NumNodes()
		mem := NewMemory(topo)
		rv := NewResolver(topo, NewResourceSet(topo), NewCacheSet(mem))
		r := mem.NewRegion("a", int64(nb)*BlockSize)
		r.PlaceOnNode(node)
		pat := Stream
		if gather {
			pat = Gather
		}
		var d Demand
		rv.Resolve(0, []Access{{Region: r, Offset: 0, Bytes: int64(nb) * BlockSize, Pattern: pat}}, &d)
		var ctrlBytes float64
		for n := 0; n < topo.NumNodes(); n++ {
			ctrlBytes += d.ResBytes[rv.Resources().Controller(n)]
		}
		useful := float64(nb) * float64(BlockSize)
		inflate := 1.0
		if gather {
			inflate = 1 / gatherLineUtilization
		}
		want := useful * inflate * topo.Distance(0, node)
		return math.Abs(ctrlBytes-want) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
