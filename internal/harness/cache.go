package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"github.com/ilan-sched/ilan/internal/cellcache"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/topology"
)

// The campaign cache key contract (DESIGN.md §13).
//
// A unit — one (benchmark, scheduler, rep) simulation — is a pure function
// of the inputs below; determinism gates pin that purity (jobs=1 ≡ jobs=8,
// serve on ≡ off). The key is the SHA-256 of the canonical JSON of those
// inputs, so two invocations share an entry exactly when the simulation
// they would run is byte-identical.
//
// Included (any change must change the result, so it changes the key):
//   - the simulator/code fingerprint (bumped when the model changes),
//   - benchmark name and workload class (the workload model + parameters),
//   - scheduler kind (kind fully determines the scheduler construction,
//     including its ILAN option set — see NewScheduler),
//   - the repetition index and base seed (they derive the machine seed),
//   - noise model, topology spec, disturbance injection,
//   - machine-model overrides (bandwidths, alpha, beta),
//   - observability settings that change the stored payload (Metrics,
//     TraceDecisions, DecisionCap, TraceTasks for rep 0, and Attr — the
//     attribution report rides inside the cached RunSample),
//   - for co-run units, the co-run descriptor (benchmark list + arrival
//     spread): it determines the whole workload. Solo units normalize
//     Multi out — a solo simulation never reads it — so RunMulti's solo
//     reference cells share entries with plain solo campaigns. Co-run
//     units conversely normalize Attr out (attribution is not collected
//     for co-run units) and carry no Bench (the descriptor names the
//     scenario),
//   - for the oracle's fixed-configuration units, the pinned (threads,
//     steal policy); they run with every observer off, so their
//     observability inputs are normalized out.
//
// The unit constructors (unit.go) apply these normalizations to the unit's
// config, so the key is built from what the simulation actually reads.
//
// Normalized out (proven output-neutral, so runs share entries across
// them): Reps (the rep index, not the campaign width, feeds the seed),
// Jobs (§7 determinism gate), Track (read-only telemetry), Cache and
// Cancel (the cache never feeds back).
// TestCacheKeyClassifiesEveryConfigField forces every new Config field to
// be classified into one of the two lists.

// simFingerprint identifies the simulator + machine-model code generation.
// Bump it whenever a change alters any campaign output byte (timings,
// metrics, traces): old cache entries then miss instead of serving stale
// results. Tests override it to prove fingerprint skew invalidates keys.
var simFingerprint = "ilan-sim-v9-zen4-fluid-attr"

// cacheKeyInputs is the canonical, JSON-marshaled form of a unit's
// identity. Field order is fixed by the struct, map-free, so the encoding
// is byte-deterministic.
type cacheKeyInputs struct {
	Fingerprint  string              `json:"fingerprint"`
	EntryVersion int                 `json:"entryVersion"`
	Bench        string              `json:"bench"`
	Class        string              `json:"class"`
	Kind         string              `json:"kind"`
	Rep          int                 `json:"rep"`
	Seed         uint64              `json:"seed"`
	Noise        machine.NoiseConfig `json:"noise"`
	Topo         topology.Spec       `json:"topo"`
	Disturb      *Disturb            `json:"disturb"`
	ControllerBW float64             `json:"controllerBW"`
	LinkBW       float64             `json:"linkBW"`
	CoreStreamBW float64             `json:"coreStreamBW"`
	Alpha        *float64            `json:"alpha"`
	Beta         *float64            `json:"beta"`
	Metrics      bool                `json:"metrics"`
	TraceDecs    bool                `json:"traceDecisions"`
	DecisionCap  int                 `json:"decisionCap"`
	TraceTasks   bool                `json:"traceTasks"`
	Attr         bool                `json:"attr"`
	// Multi is nil for solo units; for co-run units it is the workload
	// descriptor and Bench is empty.
	Multi *CoRun `json:"multi,omitempty"`
	// Fixed is the pinned configuration of an oracle unit (nil otherwise),
	// which keeps fixed points apart from ordinary ILAN units.
	Fixed *fixedConfig `json:"fixed,omitempty"`
}

// key computes the unit's content address. The zero-value topology
// normalizes to the default the run would actually use, so cfg.Topo ==
// Spec{} and cfg.Topo == Zen4Vera() share entries (they run the same
// machine). TraceTasks only affects repetition 0 (units only record rep 0's
// trace), so it is normalized to false for other reps. Co-run units carry
// no Bench (the descriptor names the workload); solo units carry no Multi
// and no Fixed, so their keys are the ones earlier builds wrote.
func (u *unit) key() string {
	cfg := &u.cfg
	in := cacheKeyInputs{
		Fingerprint:  simFingerprint,
		EntryVersion: cellcache.Version,
		Bench:        u.bench.Name,
		Class:        cfg.Class.String(),
		Kind:         u.kind.String(),
		Rep:          u.rep,
		Seed:         cfg.Seed,
		Noise:        cfg.Noise,
		Topo:         cfg.topoSpec(),
		Disturb:      cfg.Disturb,
		ControllerBW: cfg.ControllerBW,
		LinkBW:       cfg.LinkBW,
		CoreStreamBW: cfg.CoreStreamBW,
		Alpha:        cfg.Alpha,
		Beta:         cfg.Beta,
		Metrics:      cfg.Metrics,
		TraceDecs:    cfg.TraceDecisions,
		DecisionCap:  cfg.DecisionCap,
		TraceTasks:   cfg.TraceTasks && u.rep == 0,
		Attr:         cfg.Attr,
		Multi:        cfg.Multi,
		Fixed:        u.fixed,
	}
	data, err := json.Marshal(in)
	if err != nil {
		// Every field is a plain value; Marshal cannot fail unless a
		// float override is NaN/Inf — then no stable key exists, so
		// return an invalid one (the unit runs uncached).
		return ""
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// memo returns a unit's sample from the cache, or runs it and commits the
// result. The key is computed only when a cache is attached. A sample
// round-trips losslessly through JSON: Go prints floats in the shortest
// form that parses back exactly, and the results writer re-encodes through
// the same marshaler, so a campaign assembled from cached units is
// byte-identical to a cold run. A stored payload that no longer decodes
// into this build's sample type is treated as corrupt: dropped and
// recomputed. Put failures are swallowed (the cache is an accelerator,
// never a correctness dependency); they show in the cache's error counter.
func memo[T any](c *cellcache.Cache, key func() string, run func() (T, error)) (T, error) {
	if c == nil {
		return run()
	}
	k := key()
	if k == "" {
		return run()
	}
	if data, ok := c.Get(k); ok {
		var s T
		if err := json.Unmarshal(data, &s); err == nil {
			return s, nil
		}
		c.Discard(k)
	}
	s, err := run()
	if err == nil {
		if data, err := json.Marshal(s); err == nil {
			_ = c.Put(k, data)
		}
	}
	return s, err
}
