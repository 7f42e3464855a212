// Package memsys models the memory system of the simulated NUMA machine:
// data regions placed block-wise on NUMA nodes, per-node memory controllers
// and inter-socket links as finite-bandwidth resources, and a per-CCD
// last-level-cache model.
//
// A task describes the memory it touches as a set of Accesses. The Resolver
// turns those, for a given executing core, into a Demand: compute-time
// surcharge plus byte demands on each bandwidth resource, after filtering
// through the cache model and applying NUMA distance inflation. The machine
// layer then plays the Demand through its fluid contention model.
package memsys

import (
	"fmt"

	"github.com/ilan-sched/ilan/internal/topology"
)

// BlockSize is the placement and cache-tracking granularity. Two megabytes
// matches the transparent-huge-page granularity that governs placement on
// the paper's Linux platform.
const BlockSize int64 = 2 << 20

// Region is a contiguous simulated allocation whose blocks are homed on
// NUMA nodes. Regions are created through Memory.NewRegion.
type Region struct {
	mem    *Memory
	id     int
	name   string
	size   int64
	blocks []int16 // home node per block
	// resident holds one bit per (block, CCD), bit block*NumCCDs+ccd, set
	// while the block is in that CCD's L3 model (see CacheSet). Packed
	// bits cost two bytes per 2 MB block on the paper's 16 CCDs and work
	// for any CCD count.
	resident []uint64
}

// ID returns the region's dense identifier.
func (r *Region) ID() int { return r.id }

// Name returns the human-readable region name.
func (r *Region) Name() string { return r.name }

// Size returns the region size in bytes.
func (r *Region) Size() int64 { return r.size }

// NumBlocks returns the number of placement blocks.
func (r *Region) NumBlocks() int { return len(r.blocks) }

// HomeNode returns the NUMA node that owns the block containing offset.
func (r *Region) HomeNode(offset int64) int {
	return int(r.blocks[r.blockOf(offset)])
}

func (r *Region) blockOf(offset int64) int {
	if offset < 0 || offset >= r.size {
		panic(fmt.Sprintf("memsys: offset %d out of region %q (size %d)", offset, r.name, r.size))
	}
	return int(offset / BlockSize)
}

// Memory owns all regions of one simulated machine instance.
type Memory struct {
	topo    *topology.Machine
	regions []*Region
	caches  *CacheSet // the cache set whose residency bits the regions hold
}

// NewMemory creates an empty memory system for the given topology.
func NewMemory(topo *topology.Machine) *Memory {
	return &Memory{topo: topo}
}

// Topology returns the machine topology this memory belongs to.
func (m *Memory) Topology() *topology.Machine { return m.topo }

// Regions returns all allocated regions.
func (m *Memory) Regions() []*Region { return m.regions }

// NewRegion allocates a region of the given size with every block initially
// homed on node 0 (the "first touch by the main thread" default, which is
// exactly the pathological placement the paper's baseline suffers from
// unless data is initialized in parallel).
func (m *Memory) NewRegion(name string, size int64) *Region {
	if size <= 0 {
		panic(fmt.Sprintf("memsys: region %q with non-positive size %d", name, size))
	}
	nblocks := int((size + BlockSize - 1) / BlockSize)
	r := &Region{mem: m, id: len(m.regions), name: name, size: size, blocks: make([]int16, nblocks),
		resident: make([]uint64, (nblocks*m.topo.NumCCDs()+63)/64)}
	m.regions = append(m.regions, r)
	return r
}

// PlaceBlocked homes the region's blocks in contiguous chunks across the
// given nodes: the first len/n-th of the region on nodes[0], and so on.
// This is what parallel first-touch initialization with a static loop
// produces, and it is the placement ILAN's contiguous task mapping exploits.
func (r *Region) PlaceBlocked(nodes []int) {
	if len(nodes) == 0 {
		panic("memsys: PlaceBlocked with no nodes")
	}
	n := len(r.blocks)
	for i := range r.blocks {
		idx := i * len(nodes) / n
		if idx >= len(nodes) {
			idx = len(nodes) - 1
		}
		r.blocks[i] = int16(nodes[idx])
	}
}

// PlaceInterleaved homes blocks round-robin across the given nodes,
// like numactl --interleave.
func (r *Region) PlaceInterleaved(nodes []int) {
	if len(nodes) == 0 {
		panic("memsys: PlaceInterleaved with no nodes")
	}
	for i := range r.blocks {
		r.blocks[i] = int16(nodes[i%len(nodes)])
	}
}

// PlaceOnNode homes every block of the region on a single node.
func (r *Region) PlaceOnNode(node int) {
	for i := range r.blocks {
		r.blocks[i] = int16(node)
	}
}

// NodeBytes returns how many bytes of the region are homed on each node,
// indexed by node ID.
func (r *Region) NodeBytes(numNodes int) []int64 {
	out := make([]int64, numNodes)
	for i, n := range r.blocks {
		sz := BlockSize
		if int64(i+1)*BlockSize > r.size {
			sz = r.size - int64(i)*BlockSize
		}
		out[n] += sz
	}
	return out
}
