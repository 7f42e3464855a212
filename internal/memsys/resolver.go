package memsys

import (
	"fmt"

	"github.com/ilan-sched/ilan/internal/topology"
)

// L3Bandwidth is the service rate for cache-resident data in bytes/second.
// Hits cost time too, just an order of magnitude less than DRAM.
const L3Bandwidth = 400e9

// Demand is the resolved resource footprint of one task execution: extra
// compute-side seconds (cache-hit service time) plus byte demands on each
// bandwidth resource. The machine's fluid contention model consumes it.
type Demand struct {
	// CacheSeconds is time spent moving cache-resident bytes; it behaves
	// like compute (private, uncontended).
	CacheSeconds float64
	// ResBytes[r] is the service demand on resource r in bytes, already
	// inflated by NUMA distance and pattern effects.
	ResBytes []float64
	// ResLoad[r] is the queue-pressure demand on resource r: ResBytes
	// additionally scaled by the access pattern's QueuePressure. The
	// machine derives each task's contention-load contribution from it.
	ResLoad []float64
	// LocalBytes/LocalLoad are the counterfactual demand the same accesses
	// would have placed on a single node-local controller: raw DRAM bytes
	// with no distance inflation and no link traffic. The attribution
	// engine prices the locality penalty off this baseline.
	LocalBytes float64
	LocalLoad  float64
}

// Reset clears a demand for reuse, sized for the given resource count.
func (d *Demand) Reset(resources int) {
	d.CacheSeconds = 0
	d.LocalBytes = 0
	d.LocalLoad = 0
	if cap(d.ResBytes) < resources {
		d.ResBytes = make([]float64, resources)
		d.ResLoad = make([]float64, resources)
		return
	}
	d.ResBytes = d.ResBytes[:resources]
	d.ResLoad = d.ResLoad[:resources]
	for i := range d.ResBytes {
		d.ResBytes[i] = 0
		d.ResLoad[i] = 0
	}
}

// TotalBytes returns the summed resource demand (diagnostics).
func (d *Demand) TotalBytes() float64 {
	var t float64
	for _, b := range d.ResBytes {
		t += b
	}
	return t
}

// Resolver turns task Accesses into resource Demands for a specific
// executing core, consulting and updating the cache model.
type Resolver struct {
	topo   *topology.Machine
	res    *ResourceSet
	caches *CacheSet
	// routes[coreNode*NumNodes+home] is where a block homed on home goes
	// when a core of coreNode misses it: the distance inflation, the home
	// controller and the inter-socket link (-1 within a socket).
	routes []route
}

type route struct {
	dist       float64
	ctrl, link int32
}

// NewResolver wires a resolver over a topology, resource set and cache set.
func NewResolver(topo *topology.Machine, res *ResourceSet, caches *CacheSet) *Resolver {
	n := topo.NumNodes()
	rv := &Resolver{topo: topo, res: res, caches: caches, routes: make([]route, n*n)}
	for from := 0; from < n; from++ {
		for home := 0; home < n; home++ {
			rv.routes[from*n+home] = route{
				dist: topo.Distance(from, home),
				ctrl: int32(res.Controller(home)),
				link: int32(res.Link(topo.SocketOfNode(from), topo.SocketOfNode(home))),
			}
		}
	}
	return rv
}

// Resources returns the resolver's resource set.
func (rv *Resolver) Resources() *ResourceSet { return rv.res }

// Caches returns the resolver's cache set.
func (rv *Resolver) Caches() *CacheSet { return rv.caches }

// Resolve computes the demand of executing the given accesses on core. The
// demand buffer is reset and filled. Resolve updates cache state, so it
// must be called exactly once per task execution, at dispatch time (the
// standard fluid-model approximation: cache effects of concurrent tasks are
// serialized in event order).
func (rv *Resolver) Resolve(core int, accesses []Access, dem *Demand) {
	dem.Reset(rv.res.Count())
	ccd := rv.topo.CCDOfCore(core)
	n := rv.topo.NumNodes()
	coreNode := rv.topo.NodeOfCore(core)
	routes := rv.routes[coreNode*n : coreNode*n+n]
	// The sums accumulate in locals, block by block in the order they
	// always did, and are stored once at the end: the same additions in
	// the same order give the same bits.
	resBytes, resLoad := dem.ResBytes, dem.ResLoad
	var cacheSec, localBytes, localLoad float64

	for _, a := range accesses {
		if err := a.validate(); err != nil {
			panic(err)
		}
		if a.Region.mem != rv.caches.mem {
			panic(fmt.Sprintf("memsys: region %q belongs to another machine's memory", a.Region.name))
		}
		if a.Bytes == 0 {
			continue
		}
		span := a.span()
		firstBlock := int(a.Offset / BlockSize)
		lastBlock := int((a.Offset + span - 1) / BlockSize)
		nblocks := lastBlock - firstBlock + 1
		bytesPerBlock := float64(a.Bytes) / float64(nblocks)

		inflate := 1.0
		if a.Pattern == Gather {
			inflate = 1 / gatherLineUtilization
		}
		pressure := a.Pattern.QueuePressure()

		homes := a.Region.blocks
		for lo := firstBlock; lo <= lastBlock; lo += 64 {
			hi := min(lo+63, lastBlock)
			hits := rv.caches.touchRange(ccd, a.Region, lo, hi)
			for b := lo; b <= hi; b++ {
				if hits&(1<<(b-lo)) != 0 {
					cacheSec += bytesPerBlock / L3Bandwidth
					continue
				}
				rt := &routes[homes[b]]
				raw := bytesPerBlock * inflate
				resBytes[rt.ctrl] += raw * rt.dist
				resLoad[rt.ctrl] += raw * rt.dist * pressure
				localBytes += raw
				localLoad += raw * pressure
				if rt.link >= 0 {
					resBytes[rt.link] += raw
					resLoad[rt.link] += raw
				}
			}
		}
	}
	dem.CacheSeconds, dem.LocalBytes, dem.LocalLoad = cacheSec, localBytes, localLoad
}
