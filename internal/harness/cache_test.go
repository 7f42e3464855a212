package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"github.com/ilan-sched/ilan/internal/cellcache"
	"github.com/ilan-sched/ilan/internal/looplang"
	"github.com/ilan-sched/ilan/internal/topology"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// keyUnit is one concrete (bench, kind, cfg, rep) whose key we perturb.
type keyUnit struct {
	bench workloads.Benchmark
	kind  Kind
	cfg   Config
	rep   int
}

func baseUnit(t *testing.T) keyUnit {
	t.Helper()
	return keyUnit{bench: mustBench(t, "CG"), kind: KindBaseline, cfg: testConfig(), rep: 0}
}

func (u keyUnit) key() string {
	su := soloUnit(u.bench, u.kind, u.cfg)
	su.rep = u.rep
	return su.key()
}

// multiKey is the key of one co-run unit of the workload cfg.Multi names.
func multiKey(k Kind, cfg Config, rep int) string {
	u := coRunUnit(nil, k, cfg)
	u.rep = rep
	return u.key()
}

func TestCacheKeyIsStableHex(t *testing.T) {
	u := baseUnit(t)
	k1, k2 := u.key(), u.key()
	if k1 != k2 {
		t.Fatalf("same inputs, different keys: %s vs %s", k1, k2)
	}
	if !regexp.MustCompile(`^[0-9a-f]{64}$`).MatchString(k1) {
		t.Fatalf("key is not 64 hex chars: %q", k1)
	}
}

// TestCacheKeyPerturbation is the key contract table: every input that can
// change a unit's result must change its key, and every setting proven
// output-neutral by the determinism gates must NOT (so reruns with a
// different -jobs or -reps still hit).
func TestCacheKeyPerturbation(t *testing.T) {
	alpha, beta := 0.02, 0.001
	mustChange := map[string]func(*keyUnit){
		"bench":               func(u *keyUnit) { u.bench = mustBench(t, "Matmul") },
		"kind":                func(u *keyUnit) { u.kind = KindILAN },
		"rep":                 func(u *keyUnit) { u.rep = 1 },
		"seed":                func(u *keyUnit) { u.cfg.Seed++ },
		"class":               func(u *keyUnit) { u.cfg.Class = workloads.ClassPaper },
		"noise":               func(u *keyUnit) { u.cfg.Noise.Enabled = true },
		"topo":                func(u *keyUnit) { u.cfg.Topo = topology.Zen4Vera() },
		"disturb":             func(u *keyUnit) { u.cfg.Disturb = &Disturb{Node: 1} },
		"disturb-node":        func(u *keyUnit) { u.cfg.Disturb = &Disturb{Node: 2} },
		"controller-bw":       func(u *keyUnit) { u.cfg.ControllerBW = 30e9 },
		"link-bw":             func(u *keyUnit) { u.cfg.LinkBW = 20e9 },
		"core-bw":             func(u *keyUnit) { u.cfg.CoreStreamBW = 25e9 },
		"alpha":               func(u *keyUnit) { u.cfg.Alpha = &alpha },
		"beta":                func(u *keyUnit) { u.cfg.Beta = &beta },
		"metrics":             func(u *keyUnit) { u.cfg.Metrics = true },
		"trace-decisions":     func(u *keyUnit) { u.cfg.TraceDecisions = true },
		"decision-cap":        func(u *keyUnit) { u.cfg.DecisionCap = 512 },
		"trace-tasks (rep 0)": func(u *keyUnit) { u.cfg.TraceTasks = true },
		"document":            func(u *keyUnit) { u.bench = cgDocument(10) },
	}
	mustNotChange := map[string]func(*keyUnit){
		"jobs":                func(u *keyUnit) { u.cfg.Jobs = 8 },
		"reps":                func(u *keyUnit) { u.cfg.Reps = 30 },
		"tracker":             func(u *keyUnit) { u.cfg.Track = NewTracker() },
		"canceler":            func(u *keyUnit) { u.cfg.Cancel = NewCanceler() },
		"trace-tasks (rep 1)": func(u *keyUnit) { u.rep = 1; u.cfg.TraceTasks = true },
		"multi (solo unit)":   func(u *keyUnit) { u.cfg.Multi = &CoRun{Benches: []string{"CG", "FT"}} },
	}

	base := baseUnit(t).key()
	for name, mut := range mustChange {
		u := baseUnit(t)
		mut(&u)
		if u.key() == base {
			t.Errorf("perturbing %s did not change the cache key", name)
		}
	}
	// trace-tasks (rep 1) compares against a rep-1 base.
	rep1 := baseUnit(t)
	rep1.rep = 1
	rep1Base := rep1.key()
	for name, mut := range mustNotChange {
		u := baseUnit(t)
		mut(&u)
		want := base
		if u.rep == 1 {
			want = rep1Base
		}
		if u.key() != want {
			t.Errorf("output-neutral setting %s changed the cache key", name)
		}
	}

	// Two documents that share a name share no entry.
	doc1, doc2 := baseUnit(t), baseUnit(t)
	doc1.bench, doc2.bench = cgDocument(10), cgDocument(11)
	if doc1.key() == doc2.key() {
		t.Error("two documents named CG share a cache key")
	}

	// The cache handle itself must be key-neutral (it never feeds back).
	u := baseUnit(t)
	cc, err := cellcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	u.cfg.Cache = cc
	if u.key() != base {
		t.Error("attaching a cache changed the cache key")
	}
}

// cgDocument is a looplang document benchmark that calls itself CG, with
// the given per-iteration compute.
func cgDocument(micros float64) workloads.Benchmark {
	return workloads.FromDocument(&looplang.Document{
		Name: "CG", Steps: 1, Regions: []looplang.RegionDecl{{Name: "v"}},
		Loops: []looplang.LoopDecl{{Name: "l", Iters: 4, Tasks: 2, ComputeMicros: micros,
			Streams: []looplang.AccessDecl{{Region: "v", KBPerIter: 1}}}},
	})
}

// TestCacheKeyMultiPerturbation: every co-run descriptor input must change
// the multi key, and the multi key space must never collide with solo keys.
func TestCacheKeyMultiPerturbation(t *testing.T) {
	base := testConfig()
	base.Multi = &CoRun{Benches: []string{"CG", "FT"}}
	baseKey := multiKey(KindBaseline, base, 0)
	if baseKey == "" {
		t.Fatal("multi key empty for a valid co-run config")
	}
	if baseKey == (keyUnit{bench: mustBench(t, "CG"), kind: KindBaseline, cfg: base}).key() {
		t.Fatal("multi key collides with a solo key")
	}
	perturb := map[string]func(*Config) (Kind, int){
		"benches": func(c *Config) (Kind, int) {
			c.Multi = &CoRun{Benches: []string{"CG", "Matmul"}}
			return KindBaseline, 0
		},
		"bench-order": func(c *Config) (Kind, int) {
			c.Multi = &CoRun{Benches: []string{"FT", "CG"}}
			return KindBaseline, 0
		},
		"spread": func(c *Config) (Kind, int) {
			c.Multi = &CoRun{Benches: []string{"CG", "FT"}, ArrivalSpreadSec: 0.5}
			return KindBaseline, 0
		},
		"kind": func(c *Config) (Kind, int) { return KindILAN, 0 },
		"rep":  func(c *Config) (Kind, int) { return KindBaseline, 1 },
		"seed": func(c *Config) (Kind, int) { c.Seed++; return KindBaseline, 0 },
	}
	for name, mut := range perturb {
		cfg := testConfig()
		cfg.Multi = &CoRun{Benches: []string{"CG", "FT"}}
		k, rep := mut(&cfg)
		if multiKey(k, cfg, rep) == baseKey {
			t.Errorf("perturbing %s did not change the multi cache key", name)
		}
	}
	// Attr is normalized out of multi keys (co-run units never collect it).
	attrCfg := base
	attrCfg.Attr = true
	if multiKey(KindBaseline, attrCfg, 0) != baseKey {
		t.Error("attr changed the multi cache key despite being normalized out")
	}
}

// TestCacheKeysPinned pins the hex keys of one solo and one co-run unit as
// the separate solo and co-run key builders of earlier builds computed
// them, so existing .ilan-cache entries stay valid. A deliberate change to
// the key contract bumps simFingerprint and updates these values.
func TestCacheKeysPinned(t *testing.T) {
	solo := keyUnit{bench: mustBench(t, "CG"), kind: KindILAN, cfg: testConfig(), rep: 1}
	if got, want := solo.key(), "49a3f03e22d94a7bbeca97bea89f24ddb0becff0d96ea2d45fb5f472e664e897"; got != want {
		t.Errorf("solo key = %s, want %s", got, want)
	}
	obsCfg := testConfig()
	obsCfg.Metrics, obsCfg.TraceDecisions, obsCfg.TraceTasks, obsCfg.Attr = true, true, true, true
	observed := keyUnit{bench: mustBench(t, "FT"), kind: KindBaseline, cfg: obsCfg}
	if got, want := observed.key(), "8973434ec15b4f30163f574c39a17deb31d6d784d10af061015fe3975713880e"; got != want {
		t.Errorf("observed solo key = %s, want %s", got, want)
	}
	co := testConfig()
	co.Multi = &CoRun{Benches: []string{"CG", "FT"}, ArrivalSpreadSec: 0.05}
	if got, want := multiKey(KindILAN, co, 1), "dbe30f218b672bc8bc06e6205597db302ce0bcca407016d4b6214fbbd6b61ce2"; got != want {
		t.Errorf("co-run key = %s, want %s", got, want)
	}
}

// TestCacheKeyFixedUnitsDistinct: an oracle fixed point runs ILAN with a
// pinned configuration, so it must never share an entry with the ordinary
// ILAN unit of the same benchmark and rep, nor with another fixed point.
func TestCacheKeyFixedUnitsDistinct(t *testing.T) {
	b := mustBench(t, "CG")
	for _, cfg := range []Config{testConfig(), func() Config {
		c := testConfig()
		c.Metrics, c.TraceDecisions, c.TraceTasks, c.Attr = true, true, true, true
		return c
	}()} {
		solo := keyUnit{bench: b, kind: KindILAN, cfg: cfg}.key()
		seen := map[string]bool{solo: true}
		for _, fc := range []fixedConfig{{Threads: 16}, {Threads: 16, StealFull: true}, {Threads: 8}} {
			u := fixedUnit(b, fc, cfg)
			k := u.key()
			if seen[k] {
				t.Fatalf("fixed unit %+v shares a key with a solo ILAN unit or another fixed point", fc)
			}
			seen[k] = true
		}
	}
}

func TestCacheKeyFingerprintSkewInvalidates(t *testing.T) {
	u := baseUnit(t)
	base := u.key()
	old := simFingerprint
	defer func() { simFingerprint = old }()
	simFingerprint = "ilan-sim-v999-test-skew"
	if u.key() == base {
		t.Fatal("fingerprint bump did not change the cache key")
	}
}

// A zero topology spec runs on the Zen4Vera default, so both spellings of
// the same machine must share cache entries.
func TestCacheKeyZeroTopoNormalized(t *testing.T) {
	a := baseUnit(t)
	a.cfg.Topo = topology.Spec{}
	b := baseUnit(t)
	b.cfg.Topo = topology.Zen4Vera()
	if a.key() != b.key() {
		t.Fatal("zero topo and explicit Zen4Vera produced different keys")
	}
}

// TestCacheKeyClassifiesEveryConfigField forces every Config field into the
// key contract: it must be listed as key-bearing (cache.go includes it) or
// normalized-out (proven output-neutral). Adding a Config field without
// classifying it here fails the build's tests — the failure mode this
// prevents is a new result-changing knob silently sharing cache entries.
func TestCacheKeyClassifiesEveryConfigField(t *testing.T) {
	keyBearing := map[string]bool{
		"Class": true, "Seed": true, "Noise": true, "Topo": true,
		"Disturb": true, "ControllerBW": true, "LinkBW": true,
		"CoreStreamBW": true, "Alpha": true, "Beta": true, "Metrics": true,
		"TraceDecisions": true, "DecisionCap": true, "TraceTasks": true,
		"Attr": true,
		// Multi is key-bearing for co-run units (coRunUnit) and
		// normalized out of solo keys (a solo simulation never reads it).
		"Multi": true,
	}
	normalizedOut := map[string]bool{
		"Reps": true, "Jobs": true, "Track": true, "Cache": true,
		"Cancel": true,
	}
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		switch {
		case keyBearing[name] && normalizedOut[name]:
			t.Errorf("Config.%s classified as both key-bearing and normalized-out", name)
		case !keyBearing[name] && !normalizedOut[name]:
			t.Errorf("Config.%s is not classified in the cache-key contract: "+
				"add it to cacheKeyInputs (if it can change a unit's result) or "+
				"to the normalized-out list here (if proven output-neutral), "+
				"and update the contract comment in cache.go", name)
		}
	}
	// And the reverse: the lists must not drift ahead of the struct.
	fields := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		fields[typ.Field(i).Name] = true
	}
	for name := range keyBearing {
		if !fields[name] {
			t.Errorf("key-bearing list names nonexistent Config field %s", name)
		}
	}
	for name := range normalizedOut {
		if !fields[name] {
			t.Errorf("normalized-out list names nonexistent Config field %s", name)
		}
	}
}

func openTestCache(t *testing.T) *cellcache.Cache {
	t.Helper()
	cc, err := cellcache.Open(filepath.Join(t.TempDir(), "cache"), 0)
	if err != nil {
		t.Fatal(err)
	}
	return cc
}

// TestRunOneCacheRoundTrip: a warm RunOne must return the exact sample the
// cold run computed — including the obs snapshot and rep-0 task trace — and
// count one miss then one hit.
func TestRunOneCacheRoundTrip(t *testing.T) {
	b := mustBench(t, "Matmul")
	cfg := testConfig()
	cfg.Metrics = true
	cfg.TraceDecisions = true
	cfg.TraceTasks = true
	cfg.Cache = openTestCache(t)

	cold, err := RunOne(b, KindILAN, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunOne(b, KindILAN, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := cfg.Cache.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss + 1 hit", st)
	}
	ce, _ := json.Marshal(cold)
	we, _ := json.Marshal(warm)
	if string(ce) != string(we) {
		t.Fatalf("warm sample not byte-identical:\ncold: %s\nwarm: %s", ce, we)
	}
	// And both must match an uncached run of the same unit.
	plain := cfg
	plain.Cache = nil
	ref, err := RunOne(b, KindILAN, plain, 0)
	if err != nil {
		t.Fatal(err)
	}
	re, _ := json.Marshal(ref)
	if string(ce) != string(re) {
		t.Fatal("cached sample differs from an uncached run")
	}
}

// Corrupting every object on disk must turn hits back into misses and
// recomputes — never a crash, never a wrong result.
func TestRunOneCorruptEntryRecomputes(t *testing.T) {
	b := mustBench(t, "CG")
	cfg := testConfig()
	cfg.Cache = openTestCache(t)
	cold, err := RunOne(b, KindBaseline, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	objects := filepath.Join(cfg.Cache.Dir(), "objects")
	var corrupted int
	err = filepath.Walk(objects, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		corrupted++
		return os.WriteFile(path, []byte(`{"version":1,"key":"tampered`), 0o644)
	})
	if err != nil || corrupted == 0 {
		t.Fatalf("corrupted %d objects, err %v", corrupted, err)
	}
	again, err := RunOne(b, KindBaseline, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again != cold {
		t.Fatalf("recomputed sample diverged: %+v vs %+v", again, cold)
	}
	st := cfg.Cache.Stats()
	if st.Hits != 0 {
		t.Fatalf("corrupt entry served as a hit: %+v", st)
	}
	if st.Errors == 0 {
		t.Fatalf("corruption not counted as an error: %+v", st)
	}
	// The recompute recommitted the entry; a third run hits again.
	if _, err := RunOne(b, KindBaseline, cfg, 0); err != nil {
		t.Fatal(err)
	}
	if st := cfg.Cache.Stats(); st.Hits != 1 {
		t.Fatalf("recomputed entry not recommitted: %+v", st)
	}
}

// TestCacheRejectsInvalidSamples: a payload that decodes but could not
// have come from its unit — no tasks, no programs, a missing or extra
// observer — must be discarded, counted as a cache error and recomputed,
// never served as a hit. The recompute recommits a valid entry, which the
// next run serves.
func TestCacheRejectsInvalidSamples(t *testing.T) {
	cg, ft := mustBench(t, "CG"), mustBench(t, "FT")
	corun := testConfig()
	corun.Multi = &CoRun{Benches: []string{"CG", "FT"}}
	with := func(set func(*Config)) Config {
		cfg := testConfig()
		set(&cfg)
		return cfg
	}
	metrics := func(c *Config) { c.Metrics = true }
	cases := []struct {
		name    string
		cfg     Config
		rep     int
		multi   bool
		payload string
	}{
		{"solo empty", testConfig(), 0, false, `{}`},
		{"solo no tasks", testConfig(), 0, false, `{"ElapsedSec":1,"Tasks":0}`},
		{"solo zero elapsed", testConfig(), 0, false, `{"ElapsedSec":0,"Tasks":5}`},
		{"solo negative elapsed", testConfig(), 0, false, `{"ElapsedSec":-1,"Tasks":5}`},
		{"solo obs missing", with(metrics), 0, false, `{"ElapsedSec":1,"Tasks":5}`},
		{"solo obs unexpected", testConfig(), 0, false, `{"ElapsedSec":1,"Tasks":5,"Obs":{"runs":1}}`},
		{"solo attr missing", with(func(c *Config) { c.Attr = true }), 0, false, `{"ElapsedSec":1,"Tasks":5}`},
		{"solo trace missing at rep 0", with(func(c *Config) { c.TraceTasks = true }), 0, false,
			`{"ElapsedSec":1,"Tasks":5}`},
		{"solo trace beyond rep 0", with(func(c *Config) { c.TraceTasks = true }), 1, false,
			`{"ElapsedSec":1,"Tasks":5,"Trace":{}}`},
		{"corun no programs", corun, 0, true, `{"Programs":[]}`},
		{"corun one program for two benches", corun, 0, true, `{"ElapsedSec":1,"Programs":[{"Tasks":3}]}`},
		{"corun program without tasks", corun, 0, true,
			`{"ElapsedSec":1,"Programs":[{"Tasks":3},{"Tasks":0}]}`},
		{"corun obs missing", func() Config { c := corun; c.Metrics = true; return c }(), 0, true,
			`{"ElapsedSec":1,"Programs":[{"Tasks":3},{"Tasks":3}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(cfg Config) string {
				t.Helper()
				var s any
				var err error
				if tc.multi {
					s, err = RunMultiOne([]workloads.Benchmark{cg, ft}, KindILAN, cfg, tc.rep)
				} else {
					s, err = RunOne(cg, KindILAN, cfg, tc.rep)
				}
				if err != nil {
					t.Fatal(err)
				}
				data, err := json.Marshal(s)
				if err != nil {
					t.Fatal(err)
				}
				return string(data)
			}
			want := run(tc.cfg)

			cfg := tc.cfg
			cfg.Cache = openTestCache(t)
			u := soloUnit(cg, KindILAN, cfg)
			if tc.multi {
				u = coRunUnit([]workloads.Benchmark{cg, ft}, KindILAN, cfg)
			}
			u.rep = tc.rep
			if err := cfg.Cache.Put(u.key(), []byte(tc.payload)); err != nil {
				t.Fatal(err)
			}
			if got := run(cfg); got != want {
				t.Fatalf("served the invalid payload %s:\ngot  %.200s\nwant %.200s", tc.payload, got, want)
			}
			if st := cfg.Cache.Stats(); st.Errors != 1 {
				t.Fatalf("stats = %+v, want the invalid payload counted as 1 error", st)
			}
			if got := run(cfg); got != want {
				t.Fatal("recommitted entry differs from the computed sample")
			}
			if st := cfg.Cache.Stats(); st.Hits != 2 || st.Errors != 1 {
				t.Fatalf("stats = %+v, want the recommitted entry served as a hit", st)
			}
		})
	}
}

// TestRunCampaignCacheConcurrent exercises the cache under a parallel pool
// (run with -race in CI): a cold 8-way campaign fills it, a warm 8-way
// campaign must be all hits and sample-identical.
func TestRunCampaignCacheConcurrent(t *testing.T) {
	benches := []workloads.Benchmark{mustBench(t, "CG"), mustBench(t, "Matmul")}
	kinds := []Kind{KindBaseline, KindILAN}
	cfg := testConfig()
	cfg.Reps = 3
	cfg.Jobs = 8
	cfg.Cache = openTestCache(t)

	cold, err := Run(benches, kinds, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	units := int64(len(benches) * len(kinds) * cfg.Reps)
	if st := cfg.Cache.Stats(); st.Misses != units || st.Hits != 0 {
		t.Fatalf("cold stats = %+v, want %d misses", st, units)
	}
	warm, err := Run(benches, kinds, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := cfg.Cache.Stats(); st.Hits != units {
		t.Fatalf("warm stats = %+v, want %d hits", st, units)
	}
	cold.EachCell(func(c *Cell) {
		w := warm.Cell(c.Bench, c.Kind)
		for r := range c.Samples {
			if c.Samples[r] != w.Samples[r] {
				t.Fatalf("%s/%v rep %d diverged between cold and warm", c.Bench, c.Kind, r)
			}
		}
	})
}

// A tracker attached to a cached campaign must expose the cache counters in
// its snapshots (the live monitor and /metrics read them from there).
func TestTrackerSnapshotCarriesCacheStats(t *testing.T) {
	b := mustBench(t, "Matmul")
	cfg := testConfig()
	cfg.Reps = 1
	cfg.Cache = openTestCache(t)
	cfg.Track = NewTracker()
	if _, err := runCell(b, KindILAN, cfg); err != nil {
		t.Fatal(err)
	}
	snap := cfg.Track.Snapshot()
	if snap.Cache == nil {
		t.Fatal("snapshot has no cache stats despite an attached cache")
	}
	if snap.Cache.Misses != 1 {
		t.Fatalf("snapshot cache stats = %+v, want 1 miss", snap.Cache)
	}
	// Without a cache the field stays absent, keeping old snapshot JSON
	// byte-identical.
	plain := NewTracker()
	plain.Begin("x", nil)
	if got := plain.Snapshot().Cache; got != nil {
		t.Fatalf("cache stats present without a cache: %+v", got)
	}
}
