package memsys

import (
	"fmt"

	"github.com/ilan-sched/ilan/internal/topology"
)

// ResourceID identifies a bandwidth resource: the memory controller of each
// NUMA node, followed by one inter-socket link per unordered socket pair.
type ResourceID int

// ResourceSet enumerates the bandwidth resources of a machine and maps
// traffic to them.
type ResourceSet struct {
	topo *topology.Machine
	// linkIndex[a][b] is the ResourceID of the link between sockets a and b
	// (a != b); controllers occupy IDs [0, NumNodes).
	linkIndex [][]int
	count     int

	// ControllerBW is the bandwidth of each node's memory controller in
	// bytes/second; LinkBW the bandwidth of each inter-socket link.
	ControllerBW float64
	LinkBW       float64
	// Alpha and Beta are the queueing-contention coefficients: under a
	// byte-weighted queue-pressure load W a resource delivers total
	// BW/(1 + Alpha*(W-1) + Beta*(W-1)^2). The linear term models fair
	// queueing costs; the quadratic term models the collapse of DRAM
	// scheduling efficiency under deep oversubscription. They are what
	// makes oversubscription destructive and moldability profitable.
	Alpha float64
	Beta  float64
	// CoreStreamBW caps how fast a single core can move memory
	// (bytes/second); below saturation this, not the controller, limits a
	// stream.
	CoreStreamBW float64
}

// DefaultBandwidth are calibration defaults loosely following Zen 4 per-NUMA
// figures: ~45 GB/s per NUMA-node controller (DDR5 channels per quadrant),
// ~120 GB/s aggregate xGMI between sockets, ~14 GB/s single-core streaming
// rate. Alpha = 0.05 per unit of queue-pressure load keeps unit-stride
// streaming at full width mildly degraded (8 local streams per controller
// retain ~72% efficiency), while irregular gather traffic — whose
// queue-pressure multiplier is 8x — drives a controller deep into the
// quadratic penalty regime (Beta) at full width. That places the
// throughput optimum of the paper's CG/SP-like workloads in the 24-40
// thread range.
func DefaultBandwidth() (controller, link, coreStream, alpha, beta float64) {
	return 45e9, 120e9, 14e9, 0.05, 0.001
}

// NewResourceSet builds the resource enumeration for a topology with
// default bandwidth calibration.
func NewResourceSet(topo *topology.Machine) *ResourceSet {
	rs := &ResourceSet{topo: topo}
	rs.ControllerBW, rs.LinkBW, rs.CoreStreamBW, rs.Alpha, rs.Beta = DefaultBandwidth()
	rs.count = topo.NumNodes()
	s := topo.NumSockets()
	rs.linkIndex = make([][]int, s)
	for a := 0; a < s; a++ {
		rs.linkIndex[a] = make([]int, s)
		for b := 0; b < s; b++ {
			rs.linkIndex[a][b] = -1
		}
	}
	for a := 0; a < s; a++ {
		for b := a + 1; b < s; b++ {
			rs.linkIndex[a][b] = rs.count
			rs.linkIndex[b][a] = rs.count
			rs.count++
		}
	}
	return rs
}

// Count returns the number of resources.
func (rs *ResourceSet) Count() int { return rs.count }

// Name returns a resource's diagnostic name: mcN for node N's controller,
// linkA-B for the link between sockets A < B. Names are made on demand, for
// reports, so that building a machine formats none.
func (rs *ResourceSet) Name(r ResourceID) string {
	if r >= 0 && rs.IsController(r) {
		return fmt.Sprintf("mc%d", r)
	}
	for a, row := range rs.linkIndex {
		for b := a + 1; b < len(row); b++ {
			if row[b] == int(r) {
				return fmt.Sprintf("link%d-%d", a, b)
			}
		}
	}
	panic(fmt.Sprintf("memsys: no resource %d", r))
}

// Controller returns the resource ID of node n's memory controller.
func (rs *ResourceSet) Controller(node int) ResourceID { return ResourceID(node) }

// IsController reports whether r is a memory controller (vs a link).
func (rs *ResourceSet) IsController(r ResourceID) bool { return int(r) < rs.topo.NumNodes() }

// Link returns the resource ID of the link between two sockets, or -1 if
// they are the same socket.
func (rs *ResourceSet) Link(sockA, sockB int) ResourceID {
	return ResourceID(rs.linkIndex[sockA][sockB])
}

// Bandwidth returns the peak bandwidth of resource r in bytes/second.
func (rs *ResourceSet) Bandwidth(r ResourceID) float64 {
	if rs.IsController(r) {
		return rs.ControllerBW
	}
	return rs.LinkBW
}

// EffectiveBandwidth returns the total bandwidth resource r delivers under
// a byte-weighted concurrent load W (the sum over running tasks of the
// fraction of each task's traffic directed at r). It is the heart of the
// interference model: total delivered bandwidth degrades as
// BW/(1+Alpha*(W-1)) once W exceeds one full-time requestor. Each task then
// receives the share proportional to its weight, so a task's service time
// on r is bytes * W / (weight * EffectiveBandwidth).
func (rs *ResourceSet) EffectiveBandwidth(r ResourceID, w float64) float64 {
	if w < 0 {
		panic("memsys: negative load")
	}
	return rs.Eff(rs.Bandwidth(r), w)
}

// Eff applies the contention degradation to a known peak bandwidth. It is
// the formula of EffectiveBandwidth with the resource-kind dispatch hoisted
// out, so hot callers that already resolved bw (machine.remainingTime runs
// this once per sharer per task boundary) get it inlined.
func (rs *ResourceSet) Eff(bw, w float64) float64 {
	over := w - 1
	if over < 0 {
		over = 0
	}
	return bw / (1 + rs.Alpha*over + rs.Beta*over*over)
}

// PerStreamRate returns the bandwidth one of n identical full-time streams
// receives from resource r, additionally capped by CoreStreamBW. It is a
// convenience wrapper over EffectiveBandwidth for symmetric workloads and
// for tests.
func (rs *ResourceSet) PerStreamRate(r ResourceID, n int) float64 {
	if n <= 0 {
		panic("memsys: PerStreamRate with no streams")
	}
	share := rs.EffectiveBandwidth(r, float64(n)) / float64(n)
	if share > rs.CoreStreamBW {
		return rs.CoreStreamBW
	}
	return share
}
