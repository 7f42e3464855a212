package topology

import (
	"math"
	"testing"
	"testing/quick"
)

func TestZen4VeraShape(t *testing.T) {
	m := MustNew(Zen4Vera())
	if got := m.NumCores(); got != 64 {
		t.Errorf("NumCores = %d, want 64", got)
	}
	if got := m.NumNodes(); got != 8 {
		t.Errorf("NumNodes = %d, want 8", got)
	}
	if got := m.NumSockets(); got != 2 {
		t.Errorf("NumSockets = %d, want 2", got)
	}
	if got := m.NumCCDs(); got != 16 {
		t.Errorf("NumCCDs = %d, want 16", got)
	}
	if got := m.NodeSize(); got != 8 {
		t.Errorf("NodeSize = %d, want 8", got)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	base := Zen4Vera()
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"zero sockets", func(s *Spec) { s.Sockets = 0 }},
		{"negative nodes", func(s *Spec) { s.NodesPerSocket = -1 }},
		{"zero cores", func(s *Spec) { s.CoresPerNode = 0 }},
		{"zero ccd", func(s *Spec) { s.CoresPerCCD = 0 }},
		{"ccd not dividing node", func(s *Spec) { s.CoresPerCCD = 3 }},
		{"zero l3", func(s *Spec) { s.L3BytesPerCCD = 0 }},
		{"l3 over cap", func(s *Spec) { s.L3BytesPerCCD = MaxL3BytesPerCCD + 1 }},
		{"distance < 1", func(s *Spec) { s.SameSocketDistance = 0.5 }},
		{"cross < same", func(s *Spec) { s.CrossSocketDistance = 1.0 }},
		{"NaN same distance", func(s *Spec) { s.SameSocketDistance = math.NaN() }},
		{"NaN cross distance", func(s *Spec) { s.CrossSocketDistance = math.NaN() }},
		{"infinite cross distance", func(s *Spec) { s.CrossSocketDistance = math.Inf(1) }},
		{"single node machine", func(s *Spec) { s.Sockets = 1; s.NodesPerSocket = 1 }},
		{"sockets over cap", func(s *Spec) { s.Sockets = MaxSockets + 1 }},
		{"nodes over cap", func(s *Spec) { s.NodesPerSocket = MaxNodesPerSocket + 1 }},
		{"cores-per-node over cap", func(s *Spec) { s.CoresPerNode = MaxCoresPerNode + 2 }},
		{"total cores over cap", func(s *Spec) {
			s.Sockets = 32
			s.NodesPerSocket = 64
			s.CoresPerNode = 64
		}},
		{"huge fields would overflow", func(s *Spec) {
			s.Sockets = 1 << 31
			s.NodesPerSocket = 1 << 31
			s.CoresPerNode = 1 << 31
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base
			tc.mut(&s)
			if _, err := New(s); err == nil {
				t.Errorf("New accepted invalid spec %+v", s)
			}
		})
	}
}

func TestCoreNodeMapping(t *testing.T) {
	m := MustNew(Zen4Vera())
	// Node-major numbering: cores 0..7 on node 0, 8..15 on node 1, ...
	for c := 0; c < m.NumCores(); c++ {
		want := c / 8
		if got := m.NodeOfCore(c); got != want {
			t.Fatalf("NodeOfCore(%d) = %d, want %d", c, got, want)
		}
		if got := m.CCDOfCore(c); got != c/4 {
			t.Fatalf("CCDOfCore(%d) = %d, want %d", c, got, c/4)
		}
	}
}

func TestSocketMapping(t *testing.T) {
	m := MustNew(Zen4Vera())
	for n := 0; n < 4; n++ {
		if m.SocketOfNode(n) != 0 {
			t.Errorf("SocketOfNode(%d) = %d, want 0", n, m.SocketOfNode(n))
		}
	}
	for n := 4; n < 8; n++ {
		if m.SocketOfNode(n) != 1 {
			t.Errorf("SocketOfNode(%d) = %d, want 1", n, m.SocketOfNode(n))
		}
	}
	if m.SocketOfCore(0) != 0 || m.SocketOfCore(63) != 1 {
		t.Error("SocketOfCore endpoints wrong")
	}
}

func TestCoresOfNodeRoundTrip(t *testing.T) {
	m := MustNew(Zen4Vera())
	seen := make([]bool, m.NumCores())
	for n := 0; n < m.NumNodes(); n++ {
		cores := m.CoresOfNode(n)
		if len(cores) != m.NodeSize() {
			t.Fatalf("node %d has %d cores, want %d", n, len(cores), m.NodeSize())
		}
		for _, c := range cores {
			if m.NodeOfCore(c) != n {
				t.Fatalf("core %d listed under node %d but maps to node %d", c, n, m.NodeOfCore(c))
			}
			if seen[c] {
				t.Fatalf("core %d appears in two nodes", c)
			}
			seen[c] = true
		}
	}
	for c, ok := range seen {
		if !ok {
			t.Fatalf("core %d not owned by any node", c)
		}
	}
}

func TestCoresOfCCDRoundTrip(t *testing.T) {
	m := MustNew(SmallTest())
	seen := make([]bool, m.NumCores())
	for d := 0; d < m.NumCCDs(); d++ {
		for _, c := range m.CoresOfCCD(d) {
			if m.CCDOfCore(c) != d {
				t.Fatalf("core %d listed under CCD %d but maps to %d", c, d, m.CCDOfCore(c))
			}
			if seen[c] {
				t.Fatalf("core %d in two CCDs", c)
			}
			seen[c] = true
		}
	}
}

func TestCCDsOfNode(t *testing.T) {
	m := MustNew(Zen4Vera())
	for n := 0; n < m.NumNodes(); n++ {
		ccds := m.CCDsOfNode(n)
		if len(ccds) != 2 {
			t.Fatalf("node %d has %d CCDs, want 2", n, len(ccds))
		}
		for _, d := range ccds {
			for _, c := range m.CoresOfCCD(d) {
				if m.NodeOfCore(c) != n {
					t.Fatalf("CCD %d of node %d contains core %d of node %d",
						d, n, c, m.NodeOfCore(c))
				}
			}
		}
	}
}

func TestPrimaryCore(t *testing.T) {
	m := MustNew(Zen4Vera())
	for n := 0; n < m.NumNodes(); n++ {
		if got := m.PrimaryCore(n); got != n*8 {
			t.Errorf("PrimaryCore(%d) = %d, want %d", n, got, n*8)
		}
	}
}

func TestDistanceProperties(t *testing.T) {
	m := MustNew(Zen4Vera())
	for a := 0; a < m.NumNodes(); a++ {
		for b := 0; b < m.NumNodes(); b++ {
			d := m.Distance(a, b)
			if a == b && d != 1 {
				t.Errorf("Distance(%d,%d) = %g, want 1", a, b, d)
			}
			if d != m.Distance(b, a) {
				t.Errorf("Distance not symmetric at (%d,%d)", a, b)
			}
			if a != b && d < 1 {
				t.Errorf("Distance(%d,%d) = %g < 1", a, b, d)
			}
		}
	}
	// Cross-socket strictly farther than same-socket.
	if m.Distance(0, 1) >= m.Distance(0, 4) {
		t.Errorf("same-socket distance %g should be < cross-socket %g",
			m.Distance(0, 1), m.Distance(0, 4))
	}
}

func TestNearestNodesOrder(t *testing.T) {
	m := MustNew(Zen4Vera())
	order := m.NearestNodes(5)
	if order[0] != 5 {
		t.Fatalf("NearestNodes(5)[0] = %d, want 5", order[0])
	}
	if len(order) != m.NumNodes() {
		t.Fatalf("NearestNodes returned %d nodes, want %d", len(order), m.NumNodes())
	}
	// Same-socket nodes (4,6,7) must come before cross-socket (0..3).
	pos := make(map[int]int)
	for i, n := range order {
		pos[n] = i
	}
	for _, same := range []int{4, 6, 7} {
		for _, cross := range []int{0, 1, 2, 3} {
			if pos[same] > pos[cross] {
				t.Errorf("same-socket node %d ordered after cross-socket node %d", same, cross)
			}
		}
	}
}

// Property: NearestNodes is always a permutation with non-decreasing
// distance, for any valid small spec.
func TestPropertyNearestNodes(t *testing.T) {
	f := func(sock, nps, cpn uint8) bool {
		spec := Spec{
			Sockets:             1 + int(sock%3),
			NodesPerSocket:      1 + int(nps%4),
			CoresPerNode:        2 * (1 + int(cpn%4)),
			CoresPerCCD:         2,
			L3BytesPerCCD:       1 << 20,
			SameSocketDistance:  1.4,
			CrossSocketDistance: 2.2,
		}
		m, err := New(spec)
		if err != nil {
			// Single-node machines are the only rejectable shape the
			// generator can produce.
			return spec.Sockets*spec.NodesPerSocket < 2
		}
		for from := 0; from < m.NumNodes(); from++ {
			order := m.NearestNodes(from)
			if len(order) != m.NumNodes() {
				return false
			}
			seen := make(map[int]bool)
			prev := 0.0
			for _, n := range order {
				if seen[n] {
					return false
				}
				seen[n] = true
				d := m.Distance(from, n)
				if d < prev {
					return false
				}
				prev = d
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStringSummary(t *testing.T) {
	m := MustNew(Zen4Vera())
	s := m.String()
	if s == "" {
		t.Fatal("String() empty")
	}
}

func TestPresets(t *testing.T) {
	presets := Presets()
	for _, name := range []string{"zen4", "1socket", "4socket", "smalltest"} {
		spec, ok := presets[name]
		if !ok {
			t.Fatalf("preset %s missing", name)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("preset %s invalid: %v", name, err)
		}
	}
	if got := MustNew(presets["1socket"]).NumCores(); got != 32 {
		t.Fatalf("1socket cores = %d, want 32", got)
	}
	if got := MustNew(presets["4socket"]).NumCores(); got != 128 {
		t.Fatalf("4socket cores = %d, want 128", got)
	}
}

func TestSingleSocketHasNoCrossSocketDistance(t *testing.T) {
	m := MustNew(SingleSocket())
	for a := 0; a < m.NumNodes(); a++ {
		for b := 0; b < m.NumNodes(); b++ {
			if d := m.Distance(a, b); d > m.Spec().SameSocketDistance {
				t.Fatalf("Distance(%d,%d) = %g exceeds same-socket factor", a, b, d)
			}
		}
	}
}

func TestQuadSocketLinks(t *testing.T) {
	m := MustNew(QuadSocket())
	if m.NumSockets() != 4 || m.NumNodes() != 16 {
		t.Fatalf("quad socket shape wrong: %v", m)
	}
}
