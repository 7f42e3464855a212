package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"

	"github.com/ilan-sched/ilan/internal/harness"
)

// The correctness gate. Host time is what the benchmark measures; the
// simulated (virtual-time) outputs are what it checks. A change that only
// speeds the simulator up must leave every simulated statistic identical,
// so every unit of every pass is reduced to a SHA-256 digest of its
// outputs and compared with the committed reference for the seed (when
// there is one), with the first pass of the same run, and, in a traced
// run, the hand-driven units with the harness-driven ones.

// exportUnit names the pseudo-unit that stands for a pass's encoded
// outputs (results file, attribution sidecar, Perfetto traces).
const exportUnit = "export"

// digest is a SHA-256 output digest; it reads and writes as hex.
type digest [sha256.Size]byte

func (d digest) String() string { return hex.EncodeToString(d[:]) }

func (d digest) MarshalText() ([]byte, error) { return []byte(d.String()), nil }

func (d *digest) UnmarshalText(text []byte) error {
	if hex.DecodedLen(len(text)) != len(d) {
		return fmt.Errorf("digest %q is not %d hex bytes", text, len(d))
	}
	_, err := hex.Decode(d[:], text)
	return err
}

// appendFloats appends the exact bits of each value.
func appendFloats(buf []byte, fs ...float64) []byte {
	for _, f := range fs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	return buf
}

// soloDigest digests a solo unit: elapsed, overhead, threads, steals and
// tasks, plus the observability snapshot, attribution report and task
// trace when the workload records them. The scalar part allocates
// nothing, so checking a pass does not show up in the next pass's
// allocation count.
func soloDigest(s *harness.RunSample, observed bool) (digest, error) {
	var scratch [64]byte
	buf := appendFloats(scratch[:0], s.ElapsedSec, s.OverheadSec, s.WeightedThreads)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.StealsLocal))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.StealsRemote))
	buf = binary.LittleEndian.AppendUint64(buf, s.Tasks)
	if !observed {
		return sha256.Sum256(buf), nil
	}
	h := sha256.New()
	h.Write(buf)
	for _, v := range []any{s.Obs, s.Attr, s.Trace} {
		data, err := json.Marshal(v)
		if err != nil {
			return digest{}, err
		}
		h.Write(binary.LittleEndian.AppendUint64(scratch[:0], uint64(len(data))))
		h.Write(data)
	}
	var d digest
	h.Sum(d[:0])
	return d, nil
}

// multiDigest digests a co-run unit: overall elapsed plus every program's
// name, arrival, start, makespan and tasks.
func multiDigest(s *harness.MultiSample) digest {
	buf := appendFloats(nil, s.ElapsedSec)
	for _, p := range s.Programs {
		buf = append(append(append(buf, p.Program...), 0), p.Bench...)
		buf = appendFloats(append(buf, 0), p.ArrivalSec, p.StartSec, p.MakespanSec)
		buf = binary.LittleEndian.AppendUint64(buf, p.Tasks)
	}
	return sha256.Sum256(buf)
}

// outDigest digests a pass's encoded outputs.
func outDigest(out [][]byte) digest {
	h := sha256.New()
	var scratch [8]byte
	for _, b := range out {
		h.Write(binary.LittleEndian.AppendUint64(scratch[:0], uint64(len(b))))
		h.Write(b)
	}
	var d digest
	h.Sum(d[:0])
	return d
}

// gate accumulates the correctness verdict of one run.
type gate struct {
	// ref maps unit names (and exportUnit) to the committed digests for
	// the run's seed; nil when the seed has no reference.
	ref map[string]digest
	// first holds the digests of the run's first pass.
	first map[string]digest

	attempted, failed int
	problems          []string
}

const maxProblems = 8

func (g *gate) fail(format string, args ...any) {
	g.failed++
	if len(g.problems) < maxProblems {
		g.problems = append(g.problems, fmt.Sprintf(format, args...))
	}
}

// correct reports whether every check of the run passed.
func (g *gate) correct() bool { return g.failed == 0 }

// unitDigest digests one unit's outputs.
func (b *bench) unitDigest(i int, r *unitResult) (digest, error) {
	if b.units[i].multi() {
		return multiDigest(&r.multi), nil
	}
	return soloDigest(&r.solo, b.w.observe)
}

// checkUnits compares the units of a pass against the reference and the
// first pass (recording them when this is the first pass), and checks the
// attribution conservation laws. Every unit counts as one attempt.
func (g *gate) checkUnits(b *bench, p *pass) {
	record := g.first == nil
	if record {
		g.first = map[string]digest{}
	}
	for i := range p.units {
		r := &p.units[i]
		name := b.units[i].name
		g.attempted++
		if r.err != nil {
			g.fail("%s: %v", name, r.err)
			continue
		}
		d, err := b.unitDigest(i, r)
		if err != nil {
			g.fail("%s: digest: %v", name, err)
			continue
		}
		if err := r.solo.Attr.CheckConservation(); err != nil {
			g.fail("%s: %v", name, err)
			continue
		}
		if record {
			g.first[name] = d
		}
		g.compare(name, d)
	}
}

// checkPass checks a whole pass: its units, then its encoded outputs as
// one more attempt. The first pass also proves that the results file
// round-trips through results.Read and Write; cache-replay passes must
// encode exactly what the cold fill encoded.
func (g *gate) checkPass(b *bench, p *pass) {
	record := g.first == nil
	g.checkUnits(b, p)
	g.attempted++
	if err := p.firstError(); err != nil {
		if p.err != nil {
			g.fail("%s: %v", exportUnit, p.err)
		} else {
			g.failed++ // the failing unit is already reported
		}
		return
	}
	if b.coldOut != nil && !bytes.Equal(p.out[0], b.coldOut) {
		g.fail("%s: replayed results differ from the cold fill's", exportUnit)
		return
	}
	d := outDigest(p.out)
	if record {
		if err := roundTrip(p); err != nil {
			g.fail("%s: %v", exportUnit, err)
			return
		}
		g.first[exportUnit] = d
	}
	g.compare(exportUnit, d)
}

// compare checks one digest against the first pass and the reference.
func (g *gate) compare(name string, d digest) {
	if want, ok := g.first[name]; !ok || want != d {
		g.fail("%s: output differs from the first pass", name)
		return
	}
	if g.ref == nil {
		return
	}
	if want, ok := g.ref[name]; !ok {
		g.fail("%s: missing from the reference", name)
	} else if want != d {
		g.fail("%s: output differs from the reference", name)
	}
}

// roundTrip checks that the decoded results file encodes back to the
// exact bytes it was decoded from.
func roundTrip(p *pass) error {
	again, err := encode(p.decoded)
	if err != nil {
		return err
	}
	if !bytes.Equal(again, p.out[0]) {
		return errors.New("results.Read(Write(x)) does not round-trip")
	}
	return nil
}

// outputDigest folds the first pass's digests into one value per run, so
// two commits can be compared on a seed that has no reference.
func (g *gate) outputDigest() string {
	names := make([]string, 0, len(g.first))
	for n := range g.first {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s %s\n", n, g.first[n])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// reference is a committed digest file: every workload's unit digests for
// one seed.
type reference struct {
	Seed      uint64                       `json:"seed"`
	Workloads map[string]map[string]digest `json:"workloads"`
}

func referencePath(dir string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seed-%d.json", seed))
}

// loadReference reads the reference for a seed; a missing file is not an
// error (the seed simply has none).
func loadReference(dir string, seed uint64) (*reference, error) {
	data, err := os.ReadFile(referencePath(dir, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("reference %s: %w", referencePath(dir, seed), err)
	}
	if ref.Seed != seed {
		return nil, fmt.Errorf("reference %s holds seed %d", referencePath(dir, seed), ref.Seed)
	}
	return &ref, nil
}

// bless writes the first-pass digests of the given workloads into the
// seed's reference file, keeping the other workloads' entries.
func bless(dir string, seed uint64, digests map[string]map[string]digest) (string, error) {
	ref, err := loadReference(dir, seed)
	if err != nil {
		return "", err
	}
	if ref == nil {
		ref = &reference{Seed: seed}
	}
	if ref.Workloads == nil {
		ref.Workloads = map[string]map[string]digest{}
	}
	for w, d := range digests {
		ref.Workloads[w] = d
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := referencePath(dir, seed)
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
