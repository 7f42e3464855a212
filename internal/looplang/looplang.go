// Package looplang is the reproduction's analogue of the paper's loop
// conversion tool: the authors built a utility that rewrites `omp for`
// constructs into `omp taskloop` so existing data-parallel applications can
// run under ILAN. Here, where applications are workload models rather than
// C++ sources, the equivalent entry point is a declarative description: a
// JSON document describing an application's data regions and loops, which
// this package validates and compiles into a runnable taskloop Program.
//
// A Document is the one description of a taskloop program and Build is the
// one compiler: the benchmark models of package workloads are Go-literal
// documents, and `ilanexp -bench @app.json` runs a document read from a
// file (testdata/looplang/example.json is a starter).
//
// Example document:
//
//	{
//	  "name": "myapp",
//	  "steps": 30,
//	  "regions": [
//	    {"name": "grid", "placement": "blocked"},
//	    {"name": "vec", "sizeMB": 192, "placement": "blocked"}
//	  ],
//	  "loops": [
//	    {
//	      "name": "sweep", "iters": 4096, "tasks": 256,
//	      "computeMicros": 120,
//	      "imbalance": {"blocks": 24, "amplitude": 0.5, "salt": 1},
//	      "streams": [{"region": "grid", "kbPerIter": 150}],
//	      "spans": [{"region": "vec", "kbPerIter": 40, "pattern": "gather"}]
//	    }
//	  ],
//	  "sequence": ["sweep"]
//	}
//
// Regions without an explicit size are auto-sized to the largest stream
// that walks them (iters * kbPerIter). A span draws its bytes from the
// whole region, so its region needs a size of at least iters * kbPerIter.
// The regions are created, and so numbered, in declaration order; the
// loops get IDs 1..n in declaration order.
//
// Compute. A loop's per-iteration compute in seconds is computeMicros/1e6.
// Both operands are exact and the division is correctly rounded, so 120
// gives the same float64 as the Go literal 120e-6 (computeMicros*1e-6 does
// not, for 120 and ten other common values). A chunk [lo, hi) of a loop
// without imbalance computes compute*(hi-lo); an imbalanced loop sums
// compute*weight(i) over the chunk's iterations in index order.
//
// Imbalance. Two profiles give the per-iteration weights:
//
//   - "blocks" (the default): the iterations come in `blocks` contiguous
//     blocks, and iteration i weighs
//     HashWeight(i*blocks/iters + salt*1000, amplitude), a deterministic
//     pseudo-random weight in [1-amplitude, 1+amplitude]. Coarse blocks
//     punish static chunking while dynamic task scheduling rebalances
//     them. Distinct salts give the same shape different block weights;
//     an omitted salt is 0.
//   - "wavefront": a pipeline that fills and drains. With frac = i/iters,
//     iteration i weighs 0.8+1.25*frac below frac 0.2, 0.8+1.25*(1-frac)
//     above 0.8, and 1.05 in between.
//
// Limits. Validate rejects a region of more than 1 TiB (sizeMB, or iters *
// kbPerIter of an access), a loop of more than 2^20 iterations, more than
// 1e9 µs of compute per iteration, more blocks than iterations, a salt
// above 2^20, and more than 2^20 loop executions (steps times the loops of
// one step). So every byte count Build and Demand form stays far inside
// int64, and a document that validates builds in bounded memory.
package looplang

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/taskrt"
)

// The limits the package doc states.
const (
	maxRegionKB      = 1 << 30 // 1 TiB
	maxIters         = 1 << 20
	maxComputeMicros = 1e9
	maxSalt          = 1 << 20
	maxExecutions    = 1 << 20
)

// Document is the root of a workload description.
type Document struct {
	Name    string       `json:"name"`
	Steps   int          `json:"steps"`
	Regions []RegionDecl `json:"regions,omitempty"`
	Loops   []LoopDecl   `json:"loops"`
	// Sequence lists loop names executed per timestep, in order. Empty
	// means every loop once per step, in declaration order.
	Sequence []string `json:"sequence,omitempty"`
}

// RegionDecl declares a data region.
type RegionDecl struct {
	Name string `json:"name"`
	// SizeMB fixes the region size; 0 auto-sizes from stream usage.
	SizeMB int64 `json:"sizeMB,omitempty"`
	// Placement: "blocked" (default), "interleaved", or "node:<n>".
	Placement string `json:"placement,omitempty"`
}

// LoopDecl declares one taskloop.
type LoopDecl struct {
	Name          string         `json:"name"`
	Iters         int            `json:"iters"`
	Tasks         int            `json:"tasks"`
	ComputeMicros float64        `json:"computeMicros"`
	Imbalance     *ImbalanceDecl `json:"imbalance,omitempty"`
	Streams       []AccessDecl   `json:"streams,omitempty"`
	Spans         []AccessDecl   `json:"spans,omitempty"`
}

// ImbalanceDecl is a loop's load-imbalance profile (see the package doc).
type ImbalanceDecl struct {
	// Profile: "blocks" (default) or "wavefront", which takes no other
	// field.
	Profile   string  `json:"profile,omitempty"`
	Blocks    int     `json:"blocks,omitempty"`
	Amplitude float64 `json:"amplitude,omitempty"`
	Salt      int     `json:"salt,omitempty"`
}

// AccessDecl references a region with a per-iteration volume.
type AccessDecl struct {
	Region    string `json:"region"`
	KBPerIter int64  `json:"kbPerIter"`
	// Pattern applies to spans: "gather" (default) or "transpose".
	Pattern string `json:"pattern,omitempty"`
}

// Parse reads one document and validates it.
func Parse(r io.Reader) (*Document, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var doc Document
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("looplang: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("looplang: data after the document")
	}
	if err := doc.Validate(); err != nil {
		return nil, err
	}
	return &doc, nil
}

// Validate checks the document's internal consistency and limits.
func (d *Document) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("looplang: document needs a name")
	}
	if d.Steps <= 0 || d.Steps > maxExecutions {
		return fmt.Errorf("looplang: steps must be in [1, %d], got %d", maxExecutions, d.Steps)
	}
	if len(d.Loops) == 0 {
		return fmt.Errorf("looplang: no loops declared")
	}
	regions := map[string]bool{}
	for _, r := range d.Regions {
		if r.Name == "" {
			return fmt.Errorf("looplang: region without a name")
		}
		if regions[r.Name] {
			return fmt.Errorf("looplang: duplicate region %q", r.Name)
		}
		regions[r.Name] = true
		if r.SizeMB < 0 || r.SizeMB > maxRegionKB>>10 {
			return fmt.Errorf("looplang: region %q size %d MB is outside [0, %d]", r.Name, r.SizeMB, maxRegionKB>>10)
		}
		switch p := r.Placement; {
		case p == "" || p == "blocked" || p == "interleaved":
		case placedNode(p) >= 0:
		default:
			return fmt.Errorf("looplang: region %q has unknown placement %q", r.Name, r.Placement)
		}
	}
	loops := map[string]bool{}
	for _, l := range d.Loops {
		if l.Name == "" {
			return fmt.Errorf("looplang: loop without a name")
		}
		if loops[l.Name] {
			return fmt.Errorf("looplang: duplicate loop %q", l.Name)
		}
		loops[l.Name] = true
		if l.Iters <= 0 || l.Iters > maxIters || l.Tasks <= 0 || l.Tasks > l.Iters {
			return fmt.Errorf("looplang: loop %q has bad iters/tasks %d/%d (at most %d iterations, at most one task per iteration)",
				l.Name, l.Iters, l.Tasks, maxIters)
		}
		if !(l.ComputeMicros >= 0 && l.ComputeMicros <= maxComputeMicros) {
			return fmt.Errorf("looplang: loop %q compute %g µs is outside [0, %g]", l.Name, l.ComputeMicros, float64(maxComputeMicros))
		}
		if err := l.Imbalance.validate(l.Iters); err != nil {
			return fmt.Errorf("looplang: loop %q %w", l.Name, err)
		}
		for _, a := range l.Streams {
			if a.Pattern != "" {
				return fmt.Errorf("looplang: loop %q stream must not set a pattern", l.Name)
			}
		}
		for _, a := range l.Spans {
			switch a.Pattern {
			case "", "gather", "transpose":
			default:
				return fmt.Errorf("looplang: loop %q span has unknown pattern %q", l.Name, a.Pattern)
			}
		}
		for _, acc := range [][]AccessDecl{l.Streams, l.Spans} {
			for _, a := range acc {
				if !regions[a.Region] {
					return fmt.Errorf("looplang: loop %q references unknown region %q", l.Name, a.Region)
				}
				// At most maxRegionKB over the whole loop, so that
				// kbPerIter<<10 and iters*kbPerIter<<10 fit easily.
				if a.KBPerIter <= 0 || a.KBPerIter > maxRegionKB/int64(l.Iters) {
					return fmt.Errorf("looplang: loop %q access to %q has volume %d KB per iteration, want 1 to %d",
						l.Name, a.Region, a.KBPerIter, maxRegionKB/int64(l.Iters))
				}
			}
		}
	}
	for _, s := range d.Sequence {
		if !loops[s] {
			return fmt.Errorf("looplang: sequence references unknown loop %q", s)
		}
	}
	if perStep := d.perStep(); perStep > maxExecutions/d.Steps {
		return fmt.Errorf("looplang: %d steps of %d loops exceed %d loop executions", d.Steps, perStep, maxExecutions)
	}
	return nil
}

func (im *ImbalanceDecl) validate(iters int) error {
	switch {
	case im == nil:
	case im.Profile == "wavefront":
		if im.Blocks != 0 || im.Amplitude != 0 || im.Salt != 0 {
			return fmt.Errorf("wavefront imbalance takes no blocks, amplitude or salt")
		}
	case im.Profile != "" && im.Profile != "blocks":
		return fmt.Errorf("has unknown imbalance profile %q", im.Profile)
	case im.Blocks <= 0 || im.Blocks > iters || !(im.Amplitude >= 0 && im.Amplitude < 1) ||
		im.Salt < 0 || im.Salt > maxSalt:
		return fmt.Errorf("has bad imbalance (blocks %d of %d iterations, amplitude %g, salt %d)",
			im.Blocks, iters, im.Amplitude, im.Salt)
	}
	return nil
}

// placedNode returns the node of a "node:<n>" placement, or -1.
func placedNode(p string) int {
	s, ok := strings.CutPrefix(p, "node:")
	if n, err := strconv.Atoi(s); ok && err == nil && n >= 0 {
		return n
	}
	return -1
}

// perStep is the number of loop executions per timestep.
func (d *Document) perStep() int {
	if len(d.Sequence) > 0 {
		return len(d.Sequence)
	}
	return len(d.Loops)
}

func (d *Document) region(name string) int {
	return slices.IndexFunc(d.Regions, func(r RegionDecl) bool { return r.Name == name })
}

// Digest is the SHA-256 of the document's canonical JSON: two documents
// share a digest exactly when they decode to the same Document, however
// their JSON was spelled.
func (d *Document) Digest() string {
	data, err := json.Marshal(d)
	if err != nil {
		// Only a NaN or infinite number fails to encode, and Validate
		// rejects both.
		panic(fmt.Sprintf("looplang: digest of document %q: %v", d.Name, err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Build compiles a document that Validate accepts into a Program on m,
// allocating and placing its regions. It fails, leaving m untouched, on a
// region with neither a sizeMB nor a stream to size it, a span that reads
// more bytes per execution than its region holds, and a node placement m
// lacks.
func (d *Document) Build(m *machine.Machine) (*taskrt.Program, error) {
	sizes := make([]int64, len(d.Regions))
	for i, r := range d.Regions {
		sizes[i] = r.SizeMB << 20
	}
	nAcc := 0
	for _, l := range d.Loops {
		for _, a := range l.Streams {
			i := d.region(a.Region)
			sizes[i] = max(sizes[i], int64(l.Iters)*(a.KBPerIter<<10))
		}
		nAcc += len(l.Streams) + len(l.Spans)
	}
	// A span draws a chunk's bytes from anywhere in its region, and a plan
	// may run the whole loop as one chunk.
	for _, l := range d.Loops {
		for _, a := range l.Spans {
			if need, size := int64(l.Iters)*(a.KBPerIter<<10), sizes[d.region(a.Region)]; need > size {
				return nil, fmt.Errorf("looplang: loop %q spans %d bytes of region %q, which holds %d; give it a larger sizeMB",
					l.Name, need, a.Region, size)
			}
		}
	}
	nodes := m.Topology().NumNodes()
	for i, r := range d.Regions {
		if sizes[i] == 0 {
			return nil, fmt.Errorf("looplang: region %q is never streamed and has no sizeMB", r.Name)
		}
		if placedNode(r.Placement) >= nodes {
			return nil, fmt.Errorf("looplang: region %q placement %q is not a node of this %d-node machine",
				r.Name, r.Placement, nodes)
		}
	}

	all := make([]int, nodes)
	for i := range all {
		all[i] = i
	}
	regions := make([]*memsys.Region, len(d.Regions))
	for i, rd := range d.Regions {
		r := m.Memory().NewRegion(rd.Name, sizes[i])
		switch rd.Placement {
		case "", "blocked":
			r.PlaceBlocked(all)
		case "interleaved":
			r.PlaceInterleaved(all)
		default:
			r.PlaceOnNode(placedNode(rd.Placement))
		}
		regions[i] = r
	}

	// One backing array each for the loops, their accesses and their
	// Demand results.
	loops := make([]loop, len(d.Loops))
	accs := make([]access, 0, nAcc)
	scratch := make([]memsys.Access, nAcc)
	prog := &taskrt.Program{Name: d.Name, Loops: make([]*taskrt.LoopSpec, len(d.Loops))}
	for i := range d.Loops {
		decl, l := &d.Loops[i], &loops[i]
		start := len(accs)
		for _, a := range decl.Streams {
			accs = append(accs, access{region: regions[d.region(a.Region)], bytes: a.KBPerIter << 10, pattern: memsys.Stream})
		}
		for _, a := range decl.Spans {
			r := regions[d.region(a.Region)]
			pat := memsys.Gather
			if a.Pattern == "transpose" {
				pat = memsys.Transpose
			}
			accs = append(accs, access{region: r, bytes: a.KBPerIter << 10, span: r.Size(), pattern: pat})
		}
		l.acc = accs[start:len(accs):len(accs)]
		l.scratch = scratch[start:start:len(accs)]
		l.compute = decl.ComputeMicros / 1e6
		if im := decl.Imbalance; im != nil {
			l.imbalance, l.weighted, l.wavefront = *im, true, im.Profile == "wavefront"
		}
		l.spec = taskrt.LoopSpec{ID: i + 1, Name: decl.Name, Iters: decl.Iters, Tasks: decl.Tasks, Demand: l.demand}
		if len(decl.Streams) > 0 {
			l.spec.Hint = l.hint
		}
		prog.Loops[i] = &l.spec
	}

	perStep := d.perStep()
	seq := make([]int, 0, d.Steps*perStep)
	if len(d.Sequence) == 0 {
		for i := range d.Loops {
			seq = append(seq, i)
		}
	} else {
		for _, name := range d.Sequence {
			seq = append(seq, slices.IndexFunc(d.Loops, func(l LoopDecl) bool { return l.Name == name }))
		}
	}
	for s := 1; s < d.Steps; s++ {
		seq = append(seq, seq[:perStep]...)
	}
	prog.Sequence = seq
	return prog, nil
}

// loop is one compiled taskloop: the spec the runtime runs and what its
// Demand and Hint read.
type loop struct {
	spec      taskrt.LoopSpec
	compute   float64 // seconds per iteration
	weighted  bool
	wavefront bool
	imbalance ImbalanceDecl
	// acc holds the streams, then the spans. scratch is Demand's result,
	// which each call overwrites (see taskrt.DemandFunc).
	acc     []access
	scratch []memsys.Access
}

// access is one region touch of every iteration.
type access struct {
	region  *memsys.Region
	bytes   int64 // per iteration
	span    int64 // the region's size for a span; 0 for a stream
	pattern memsys.Pattern
}

// demand is the loop's DemandFunc: a stream touches the chunk's own slice
// of its region, a span draws the chunk's bytes from the whole region.
func (l *loop) demand(lo, hi int) (float64, []memsys.Access) {
	var sec float64
	if !l.weighted {
		sec = l.compute * float64(hi-lo)
	} else {
		for i := lo; i < hi; i++ {
			sec += l.compute * l.weight(i)
		}
	}
	acc := l.scratch
	for _, a := range l.acc {
		var off int64
		if a.pattern == memsys.Stream {
			off = int64(lo) * a.bytes
		}
		acc = append(acc, memsys.Access{
			Region: a.region, Offset: off, Bytes: int64(hi-lo) * a.bytes,
			Span: a.span, Pattern: a.pattern,
		})
	}
	return sec, acc
}

// weight is iteration i's share of an imbalanced loop's compute.
func (l *loop) weight(i int) float64 {
	if l.wavefront {
		frac := float64(i) / float64(l.spec.Iters)
		ramp := 1.05
		if frac < 0.2 {
			ramp = 0.8 + 1.25*frac
		} else if frac > 0.8 {
			ramp = 0.8 + 1.25*(1-frac)
		}
		return ramp
	}
	im := &l.imbalance
	return HashWeight(i*im.Blocks/l.spec.Iters+im.Salt*1000, im.Amplitude)
}

// hint is the affinity hint a programmer would annotate: the home node of
// the middle of the chunk's slice of its first stream.
func (l *loop) hint(lo, hi int) int {
	s := &l.acc[0]
	mid := (int64(lo) + int64(hi)) / 2 * s.bytes
	if size := s.region.Size(); mid >= size {
		mid = size - 1
	}
	return s.region.HomeNode(mid)
}

// HashWeight returns a deterministic pseudo-random weight in
// [1-amp, 1+amp] for an index: the imbalance profile of irregular
// kernels. The hash is splitmix64, so adjacent indices are uncorrelated.
func HashWeight(i int, amp float64) float64 {
	z := uint64(i)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	u := float64(z>>11) / (1 << 53) // [0,1)
	return 1 + amp*(2*u-1)
}
