package obs

// Decision is one ILAN configuration selection as the decision trace
// records it: which loop, at which point of the search, chose which
// (num_threads, node_mask, steal_policy) triple, and what the measured
// objective score of that execution was — all in virtual time.
type Decision struct {
	// TimeSec is the virtual time the measurement completed at.
	TimeSec float64 `json:"t"`
	// Rep is the campaign repetition the decision belongs to (filled in by
	// the harness when per-run traces are merged into a cell).
	Rep int `json:"rep"`
	// LoopID identifies the taskloop (the PTT row set); K is the loop's
	// 1-based execution ordinal.
	LoopID int `json:"loop"`
	K      int `json:"k"`
	// Program tags the owning program in a multiprogrammed run; empty for
	// solo programs, keeping single-program decision traces byte-identical.
	Program string `json:"program,omitempty"`
	// Phase is the search phase the execution was planned in
	// ("explore", "eval-steal", "settled").
	Phase string `json:"phase"`
	// Threads, NodeMask, StealFull are the chosen configuration.
	Threads   int    `json:"threads"`
	NodeMask  uint64 `json:"mask"`
	StealFull bool   `json:"stealFull"`
	// Score is the objective value measured for the execution, in the unit
	// of the active objective (seconds, joules, or joule-seconds).
	Score float64 `json:"score"`
}

// Ring is a fixed-capacity decision ring buffer. When full, the oldest
// decision is overwritten; Total keeps counting, so a snapshot reveals
// truncation. A nil Ring discards records.
type Ring struct {
	buf   []Decision
	next  int
	total uint64
}

// NewRing returns a ring holding the last capacity decisions.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Decision, 0, capacity)}
}

// Record appends a decision, overwriting the oldest once full.
func (r *Ring) Record(d Decision) {
	if r == nil {
		return
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, d)
	} else {
		r.buf[r.next] = d
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
}

// Total returns the number of decisions ever recorded (0 on nil).
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Decisions returns the retained decisions in recording order.
func (r *Ring) Decisions() []Decision {
	if r == nil || len(r.buf) == 0 {
		return nil
	}
	out := make([]Decision, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// profKey keys one folded-stack frame pair without building a string on
// the instrumentation path.
type profKey struct {
	frame1 string
	frame2 string
}

// Profile accumulates virtual-time samples as two-frame folded stacks
// (`frame1;frame2 weight`): the runtime adds one sample per taskloop
// completion attributing the loop's elapsed time to compute, memory, and
// scheduling-overhead components. A nil Profile discards samples.
type Profile struct {
	samples map[profKey]float64
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{samples: make(map[profKey]float64)}
}

// Add accumulates sec seconds of virtual time under frame1;frame2.
// Non-positive weights are dropped, matching folded-stack semantics.
func (p *Profile) Add(frame1, frame2 string, sec float64) {
	if p == nil || sec <= 0 {
		return
	}
	p.samples[profKey{frame1, frame2}] += sec
}

// fold renders the profile as "a;b" -> seconds for snapshotting.
func (p *Profile) fold() map[string]float64 {
	if p == nil || len(p.samples) == 0 {
		return nil
	}
	out := make(map[string]float64, len(p.samples))
	for k, v := range p.samples {
		out[k.frame1+";"+k.frame2] += v
	}
	return out
}
