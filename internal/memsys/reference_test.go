package memsys

// refCacheSet is the L3 model as it stood before residency bits: per CCD,
// one LRU array in recency order, least recently used first, which a touch
// scans from the front, then shifts left by one, either over the hit
// entry or, when full, over the evicted one. It is kept only as the
// reference TestCacheMatchesReference and FuzzCacheOrder hold CacheSet to;
// nothing outside the tests uses it.
type refCacheSet struct {
	capacity  int
	disabled  bool
	entries   [][]blockKey // per CCD
	hits      []uint64     // per CCD
	misses    []uint64     // per CCD
	totHits   uint64
	totMisses uint64
}

func newRefCacheSet(ccds, capacity int, disabled bool) *refCacheSet {
	return &refCacheSet{
		capacity: capacity,
		disabled: disabled,
		entries:  make([][]blockKey, ccds),
		hits:     make([]uint64, ccds),
		misses:   make([]uint64, ccds),
	}
}

func (c *refCacheSet) touch(ccd, regionID, block int) bool {
	hit := !c.disabled && c.lookup(ccd, makeBlockKey(regionID, block))
	if hit {
		c.hits[ccd]++
		c.totHits++
	} else {
		c.misses[ccd]++
		c.totMisses++
	}
	return hit
}

func (c *refCacheSet) lookup(ccd int, k blockKey) bool {
	e := c.entries[ccd]
	for i, x := range e {
		if x == k {
			copy(e[i:], e[i+1:])
			e[len(e)-1] = k
			return true
		}
	}
	if len(e) < c.capacity {
		c.entries[ccd] = append(e, k)
	} else {
		copy(e, e[1:])
		e[len(e)-1] = k
	}
	return false
}

func (c *refCacheSet) contains(ccd, regionID, block int) bool {
	k := makeBlockKey(regionID, block)
	for _, x := range c.entries[ccd] {
		if x == k {
			return true
		}
	}
	return false
}

func (c *refCacheSet) reset() {
	for i := range c.entries {
		c.entries[i] = c.entries[i][:0]
		c.hits[i], c.misses[i] = 0, 0
	}
	c.totHits, c.totMisses = 0, 0
}
