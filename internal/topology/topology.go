// Package topology models the hardware topology of a NUMA machine: sockets,
// NUMA nodes, core-complex dies (CCDs) sharing a last-level cache, and
// cores. It is the simulated counterpart of what ILAN obtains from hwloc on
// real hardware.
//
// The coordinate system is flat integer IDs: cores are numbered
// 0..NumCores-1 in node-major order (all cores of node 0 first), nodes
// 0..NumNodes-1 in socket-major order, CCDs 0..NumCCDs-1. This mirrors how
// the LLVM runtime enumerates pinned threads on the paper's platform.
package topology

import (
	"fmt"
	"math"
	"strings"
)

// Spec describes a machine to build. All counts must be positive and
// CoresPerCCD must divide CoresPerNode.
type Spec struct {
	Sockets        int
	NodesPerSocket int
	CoresPerNode   int
	CoresPerCCD    int // cores sharing one L3 slice

	L3BytesPerCCD int64 // capacity of each CCD's shared L3

	// Distance factors applied to memory access cost. Local (same node)
	// is 1 by definition.
	SameSocketDistance  float64 // node-to-node within a socket
	CrossSocketDistance float64 // node-to-node across sockets
}

// Size ceilings for Validate. They are far above any machine the simulator
// models (the paper's largest sensitivity platform has 128 cores) and exist
// so that arbitrary specs — e.g. fuzzer-generated ones — cannot overflow
// the ID arithmetic or allocate unbounded core maps in New. The L3 ceiling
// bounds the LRU window the cache model allocates per CCD up front (2 MB
// blocks, 512 of them at 1 GiB; the paper's L3 is 32 MB).
const (
	MaxSockets        = 64
	MaxNodesPerSocket = 64
	MaxCoresPerNode   = 1024
	MaxCores          = 1 << 16
	MaxL3BytesPerCCD  = 1 << 30
)

// Validate checks the spec for internal consistency.
func (s Spec) Validate() error {
	switch {
	case s.Sockets <= 0:
		return fmt.Errorf("topology: Sockets = %d, must be positive", s.Sockets)
	case s.Sockets > MaxSockets:
		return fmt.Errorf("topology: Sockets = %d exceeds maximum %d", s.Sockets, MaxSockets)
	case s.NodesPerSocket <= 0:
		return fmt.Errorf("topology: NodesPerSocket = %d, must be positive", s.NodesPerSocket)
	case s.NodesPerSocket > MaxNodesPerSocket:
		return fmt.Errorf("topology: NodesPerSocket = %d exceeds maximum %d",
			s.NodesPerSocket, MaxNodesPerSocket)
	case s.Sockets*s.NodesPerSocket < 2:
		// A NUMA scheduler on a single-node machine is meaningless, and the
		// layers above assume at least one remote node exists (distance
		// tables, steal partitions, node-mask search).
		return fmt.Errorf("topology: %d socket(s) x %d node(s) is a single-node machine, need >= 2 nodes",
			s.Sockets, s.NodesPerSocket)
	case s.CoresPerNode <= 0:
		return fmt.Errorf("topology: CoresPerNode = %d, must be positive", s.CoresPerNode)
	case s.CoresPerNode > MaxCoresPerNode:
		return fmt.Errorf("topology: CoresPerNode = %d exceeds maximum %d",
			s.CoresPerNode, MaxCoresPerNode)
	case s.Sockets*s.NodesPerSocket*s.CoresPerNode > MaxCores:
		return fmt.Errorf("topology: %d total cores exceeds maximum %d",
			s.Sockets*s.NodesPerSocket*s.CoresPerNode, MaxCores)
	case s.CoresPerCCD <= 0:
		return fmt.Errorf("topology: CoresPerCCD = %d, must be positive", s.CoresPerCCD)
	case s.CoresPerNode%s.CoresPerCCD != 0:
		return fmt.Errorf("topology: CoresPerCCD %d does not divide CoresPerNode %d",
			s.CoresPerCCD, s.CoresPerNode)
	case s.L3BytesPerCCD <= 0:
		return fmt.Errorf("topology: L3BytesPerCCD = %d, must be positive", s.L3BytesPerCCD)
	case s.L3BytesPerCCD > MaxL3BytesPerCCD:
		return fmt.Errorf("topology: L3BytesPerCCD = %d exceeds maximum %d", s.L3BytesPerCCD, int64(MaxL3BytesPerCCD))
	case !(s.SameSocketDistance >= 1): // NaN fails this comparison too
		return fmt.Errorf("topology: SameSocketDistance = %g, must be >= 1", s.SameSocketDistance)
	case !(s.CrossSocketDistance >= s.SameSocketDistance):
		return fmt.Errorf("topology: CrossSocketDistance %g < SameSocketDistance %g (or NaN)",
			s.CrossSocketDistance, s.SameSocketDistance)
	case math.IsInf(s.SameSocketDistance, 1) || math.IsInf(s.CrossSocketDistance, 1):
		return fmt.Errorf("topology: distance factors must be finite (same=%g cross=%g)",
			s.SameSocketDistance, s.CrossSocketDistance)
	}
	return nil
}

// Zen4Vera returns the topology of the paper's evaluation platform: one
// compute node of the NAISS Vera cluster with an AMD EPYC 9354 — 64 cores,
// 2 sockets, 4 NUMA nodes per socket, 8 cores per node, 32 MB L3 shared by
// each 4-core CCD. Distance factors follow the usual Zen 4 NUMA latency
// ratios (~1.4x intra-socket, ~2.2x cross-socket).
func Zen4Vera() Spec {
	return Spec{
		Sockets:             2,
		NodesPerSocket:      4,
		CoresPerNode:        8,
		CoresPerCCD:         4,
		L3BytesPerCCD:       32 << 20,
		SameSocketDistance:  1.4,
		CrossSocketDistance: 2.2,
	}
}

// SmallTest returns a small topology (2 sockets x 2 nodes x 4 cores,
// CCD = 2) used throughout unit tests where the full 64-core machine would
// be needlessly slow.
func SmallTest() Spec {
	return Spec{
		Sockets:             2,
		NodesPerSocket:      2,
		CoresPerNode:        4,
		CoresPerCCD:         2,
		L3BytesPerCCD:       4 << 20,
		SameSocketDistance:  1.4,
		CrossSocketDistance: 2.2,
	}
}

// SingleSocket returns one socket of the paper's platform: 32 cores over
// 4 NUMA nodes — for sensitivity studies on machines without the
// cross-socket penalty.
func SingleSocket() Spec {
	s := Zen4Vera()
	s.Sockets = 1
	return s
}

// QuadSocket returns a larger 4-socket, 128-core machine (4 x 4 x 8) —
// for sensitivity studies where inter-socket traffic dominates.
func QuadSocket() Spec {
	s := Zen4Vera()
	s.Sockets = 4
	return s
}

// Presets maps preset names to topology specs for command-line selection.
func Presets() map[string]Spec {
	return map[string]Spec{
		"zen4":      Zen4Vera(),
		"1socket":   SingleSocket(),
		"4socket":   QuadSocket(),
		"smalltest": SmallTest(),
	}
}

// Machine is an immutable, validated topology instance.
type Machine struct {
	spec     Spec
	numNodes int
	numCores int
	numCCDs  int

	nodeOfCore   []int
	ccdOfCore    []int
	socketOfNode []int
	coresOfNode  [][]int
	coresOfCCD   [][]int
	ccdsOfNode   [][]int
	distance     [][]float64 // node x node distance factor
}

// New builds a Machine from a Spec.
func New(spec Spec) (*Machine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{spec: spec}
	m.numNodes = spec.Sockets * spec.NodesPerSocket
	m.numCores = m.numNodes * spec.CoresPerNode
	ccdsPerNode := spec.CoresPerNode / spec.CoresPerCCD
	m.numCCDs = m.numNodes * ccdsPerNode

	m.nodeOfCore = make([]int, m.numCores)
	m.ccdOfCore = make([]int, m.numCores)
	m.socketOfNode = make([]int, m.numNodes)
	m.coresOfNode = make([][]int, m.numNodes)
	m.coresOfCCD = make([][]int, m.numCCDs)
	m.ccdsOfNode = make([][]int, m.numNodes)

	for n := 0; n < m.numNodes; n++ {
		m.socketOfNode[n] = n / spec.NodesPerSocket
		m.coresOfNode[n] = make([]int, 0, spec.CoresPerNode)
		m.ccdsOfNode[n] = make([]int, 0, ccdsPerNode)
		for d := 0; d < ccdsPerNode; d++ {
			m.ccdsOfNode[n] = append(m.ccdsOfNode[n], n*ccdsPerNode+d)
		}
	}
	for c := 0; c < m.numCores; c++ {
		node := c / spec.CoresPerNode
		ccd := c / spec.CoresPerCCD
		m.nodeOfCore[c] = node
		m.ccdOfCore[c] = ccd
		m.coresOfNode[node] = append(m.coresOfNode[node], c)
		m.coresOfCCD[ccd] = append(m.coresOfCCD[ccd], c)
	}

	m.distance = make([][]float64, m.numNodes)
	for a := 0; a < m.numNodes; a++ {
		m.distance[a] = make([]float64, m.numNodes)
		for b := 0; b < m.numNodes; b++ {
			switch {
			case a == b:
				m.distance[a][b] = 1
			case m.socketOfNode[a] == m.socketOfNode[b]:
				m.distance[a][b] = spec.SameSocketDistance
			default:
				m.distance[a][b] = spec.CrossSocketDistance
			}
		}
	}
	return m, nil
}

// MustNew is New but panics on error; for presets known to be valid.
func MustNew(spec Spec) *Machine {
	m, err := New(spec)
	if err != nil {
		panic(err)
	}
	return m
}

// Spec returns the spec the machine was built from.
func (m *Machine) Spec() Spec { return m.spec }

// NumSockets returns the socket count.
func (m *Machine) NumSockets() int { return m.spec.Sockets }

// NumNodes returns the NUMA node count.
func (m *Machine) NumNodes() int { return m.numNodes }

// NumCores returns the total core count.
func (m *Machine) NumCores() int { return m.numCores }

// NumCCDs returns the total CCD (L3 domain) count.
func (m *Machine) NumCCDs() int { return m.numCCDs }

// NodeSize returns the number of cores per NUMA node. This is ILAN's
// default thread-count granularity g.
func (m *Machine) NodeSize() int { return m.spec.CoresPerNode }

// NodeOfCore returns the NUMA node that owns core c.
func (m *Machine) NodeOfCore(c int) int { return m.nodeOfCore[c] }

// CCDOfCore returns the CCD (L3 domain) that owns core c.
func (m *Machine) CCDOfCore(c int) int { return m.ccdOfCore[c] }

// SocketOfNode returns the socket that owns NUMA node n.
func (m *Machine) SocketOfNode(n int) int { return m.socketOfNode[n] }

// CoresOfNode returns the cores of NUMA node n in ascending order.
// The returned slice must not be modified.
func (m *Machine) CoresOfNode(n int) []int { return m.coresOfNode[n] }

// CoresOfCCD returns the cores of CCD d in ascending order.
// The returned slice must not be modified.
func (m *Machine) CoresOfCCD(d int) []int { return m.coresOfCCD[d] }

// CCDsOfNode returns the CCDs of node n in ascending order.
// The returned slice must not be modified.
func (m *Machine) CCDsOfNode(n int) []int { return m.ccdsOfNode[n] }

// PrimaryCore returns the first (lowest-numbered) core of node n: the core
// whose thread acts as the node's primary in ILAN's task distribution.
func (m *Machine) PrimaryCore(n int) int { return m.coresOfNode[n][0] }

// Distance returns the memory-access distance factor from a core on node
// `from` to memory homed on node `to` (1 = local).
func (m *Machine) Distance(from, to int) float64 { return m.distance[from][to] }

// NearestNodes returns all node IDs ordered by distance from the given
// node: the node itself first, then same-socket nodes in ascending ID
// order, then remaining nodes in ascending ID order. ILAN uses this order
// to grow a node_mask around the fastest node while keeping traffic inside
// a socket when possible.
func (m *Machine) NearestNodes(from int) []int {
	order := make([]int, 0, m.numNodes)
	order = append(order, from)
	for n := 0; n < m.numNodes; n++ {
		if n != from && m.socketOfNode[n] == m.socketOfNode[from] {
			order = append(order, n)
		}
	}
	for n := 0; n < m.numNodes; n++ {
		if m.socketOfNode[n] != m.socketOfNode[from] {
			order = append(order, n)
		}
	}
	return order
}

// String renders a compact human-readable summary.
func (m *Machine) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine: %d cores, %d sockets x %d nodes x %d cores (CCD=%d, L3=%d MiB)",
		m.numCores, m.spec.Sockets, m.spec.NodesPerSocket, m.spec.CoresPerNode,
		m.spec.CoresPerCCD, m.spec.L3BytesPerCCD>>20)
	return b.String()
}
