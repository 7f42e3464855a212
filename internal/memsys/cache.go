package memsys

import (
	"fmt"
	"math/bits"
)

// blockKey identifies a placement block globally: region ID in the high
// word, block index in the low word.
type blockKey uint64

func makeBlockKey(regionID, block int) blockKey {
	return blockKey(uint64(regionID)<<32 | uint64(uint32(block)))
}

// ccdCache is a block-granular LRU model of one CCD's shared L3. Capacity
// is L3 bytes / BlockSize entries (16 blocks for the paper's 32 MB L3 at
// 2 MB blocks). It deliberately tracks placement blocks, not cache lines:
// the question the simulator needs answered is "was this chunk of data
// recently resident near this core", which is what gives contiguous
// task-to-node mappings their locality payoff.
//
// The LRU order is the window buf[lo:hi], least recently used first,
// sliding through a buffer of twice the capacity. Whether a block is
// resident is one bit in its region (Region.resident), so a miss tests
// that bit, drops the window's first entry if the cache is full and
// appends the new one, with no scan; the window slides back to the
// buffer's start once every capacity misses. A hit stays a walk over the
// contiguous window, as in a plain LRU array: down from the most recently
// used end, moving entries one place toward the other end until the hit
// entry is reached, so one pass finds the entry and moves it to the top.
type ccdCache struct {
	buf    []blockKey
	lo, hi int
}

// CacheSet holds one L3 model per CCD over the regions of one Memory.
type CacheSet struct {
	mem      *Memory
	caches   []ccdCache
	capacity int      // entries per CCD
	ccdHits  []uint64 // per-CCD hits and misses; Stats sums them
	ccdMiss  []uint64
	disabled bool
}

// NewCacheSet builds per-CCD caches for the regions of mem. The residency
// bits live in mem's regions, so a memory serves one cache set; NewCacheSet
// panics if mem already has one.
func NewCacheSet(mem *Memory) *CacheSet {
	if mem.caches != nil {
		panic("memsys: memory already has a cache set")
	}
	n := mem.topo.NumCCDs()
	capBlocks := int(mem.topo.Spec().L3BytesPerCCD / BlockSize)
	if capBlocks < 1 {
		capBlocks = 1
	}
	// Every CCD's window buffer, and both counter arrays, are carved from
	// one allocation each.
	bufs := make([]blockKey, 2*capBlocks*n)
	stats := make([]uint64, 2*n)
	cs := &CacheSet{
		mem:      mem,
		caches:   make([]ccdCache, n),
		capacity: capBlocks,
		ccdHits:  stats[:n:n],
		ccdMiss:  stats[n:],
	}
	for i := range cs.caches {
		cs.caches[i].buf = bufs[2*capBlocks*i : 2*capBlocks*(i+1) : 2*capBlocks*(i+1)]
	}
	mem.caches = cs
	return cs
}

// NewDisabledCacheSet builds a cache set whose Touch always misses — used
// by the cache-contribution ablation experiments.
func NewDisabledCacheSet(mem *Memory) *CacheSet {
	cs := NewCacheSet(mem)
	cs.disabled = true
	return cs
}

// Disabled reports whether the cache model is switched off.
func (cs *CacheSet) Disabled() bool { return cs.disabled }

// residentBit returns the word and mask of block b's residency bit for the
// given CCD in region r.
func (cs *CacheSet) residentBit(ccd int, r *Region, b int) (*uint64, uint64) {
	i := uint(b)*uint(len(cs.caches)) + uint(ccd)
	return &r.resident[i/64], 1 << (i % 64)
}

// Touch records an access to block b of region r from the given CCD, makes
// the block the CCD's most recently used, and reports a hit.
func (cs *CacheSet) Touch(ccd int, r *Region, b int) bool {
	return cs.touchRange(ccd, r, b, b) != 0
}

// touchRange touches blocks first..last of region r from the given CCD, in
// order, each as Touch does, and returns a mask with bit b-first set for
// every block that hit. The range holds at most 64 blocks. Resolve walks a
// range per call instead of a block, so its accumulation loop makes no
// call per block.
func (cs *CacheSet) touchRange(ccd int, r *Region, first, last int) (hits uint64) {
	n := uint64(last - first + 1)
	if cs.disabled {
		cs.ccdMiss[ccd] += n
		return 0
	}
	c := &cs.caches[ccd]
	buf, lo, hi := c.buf, c.lo, c.hi
	for b := first; b <= last; b++ {
		k := makeBlockKey(r.id, b)
		w, bit := cs.residentBit(ccd, r, b)
		if *w&bit != 0 {
			// Walk down from the most recently used end, moving each
			// entry one place toward the least recently used end, until
			// the entry for k is overwritten: one pass that both finds k
			// and makes it the most recently used.
			next := k
			for j := hi - 1; ; j-- {
				cur := buf[j]
				buf[j] = next
				if cur == k {
					break
				}
				next = cur
			}
			hits |= 1 << (b - first)
			continue
		}
		*w |= bit
		if hi-lo == cs.capacity {
			old := buf[lo]
			ow, obit := cs.residentBit(ccd, cs.mem.regions[old>>32], int(uint32(old)))
			*ow &^= obit
			lo++
		}
		if hi == len(buf) {
			hi = copy(buf, buf[lo:hi])
			lo = 0
		}
		buf[hi] = k
		hi++
	}
	c.lo, c.hi = lo, hi
	h := uint64(bits.OnesCount64(hits))
	cs.ccdHits[ccd] += h
	cs.ccdMiss[ccd] += n - h
	return hits
}

// Contains reports whether block b of region r is resident in the given
// CCD's cache, without updating recency.
func (cs *CacheSet) Contains(ccd int, r *Region, b int) bool {
	if r.mem != cs.mem || b < 0 || b >= len(r.blocks) {
		panic(fmt.Sprintf("memsys: block %d of region %q is not in this cache set's memory", b, r.name))
	}
	w, bit := cs.residentBit(ccd, r, b)
	return *w&bit != 0
}

// Reset empties every cache and zeroes counters (between runs).
func (cs *CacheSet) Reset() {
	for ccd := range cs.caches {
		c := &cs.caches[ccd]
		for _, k := range c.buf[c.lo:c.hi] {
			w, bit := cs.residentBit(ccd, cs.mem.regions[k>>32], int(uint32(k)))
			*w &^= bit
		}
		c.lo, c.hi = 0, 0
	}
	clear(cs.ccdHits)
	clear(cs.ccdMiss)
}

// Stats returns the raw hit/miss counters since the last Reset.
func (cs *CacheSet) Stats() (hits, misses uint64) {
	for ccd := range cs.caches {
		hits += cs.ccdHits[ccd]
		misses += cs.ccdMiss[ccd]
	}
	return hits, misses
}

// NumCCDs returns the number of per-CCD caches in the set.
func (cs *CacheSet) NumCCDs() int { return len(cs.caches) }

// CCDStats returns one CCD's hit/miss counters since the last Reset. The
// per-CCD counters always sum to Stats(), which is what the observability
// layer exports as machine_l3_{hits,misses}_total{ccd="N"}.
func (cs *CacheSet) CCDStats(ccd int) (hits, misses uint64) {
	return cs.ccdHits[ccd], cs.ccdMiss[ccd]
}

// HitRate returns the global hit fraction since the last Reset
// (0 when nothing was accessed).
func (cs *CacheSet) HitRate() float64 {
	hits, misses := cs.Stats()
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
