package harness

import (
	"encoding/json"
	"testing"

	"github.com/ilan-sched/ilan/internal/workloads"
)

// FuzzMemoPayload: whatever JSON a cached unit payload holds, RunOne
// serves it only when it decodes into a sample validSolo accepts. Any
// other payload is discarded and the unit's sample equals a cold run's.
func FuzzMemoPayload(f *testing.F) {
	b, ok := workloads.ByName("Matmul")
	if !ok {
		f.Fatal("no Matmul")
	}
	cfg := testConfig()
	cfg.Metrics = true
	cold, err := RunOne(b, KindILAN, cfg, 0)
	if err != nil {
		f.Fatal(err)
	}
	want, err := json.Marshal(cold)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(want)
	for _, seed := range []string{`{}`, `null`, `[]`, `"x"`, `{"ElapsedSec":1,"Tasks":5}`,
		`{"ElapsedSec":1,"Tasks":5,"Obs":{"runs":1}}`, `{"ElapsedSec":1e309,"Tasks":5,"Obs":{}}`,
		`{"ElapsedSec":1,"Tasks":5,"Obs":{"counters":{"a":"b"}}}`, `{"ElapsedSec":-1,"Tasks":5,"Obs":{}}`,
		`{"ElapsedSec":1,"Tasks":5,"Obs":{},"Trace":{"tasks":[{"node":-1}]}}`} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if !json.Valid(payload) {
			return // Put refuses it, and Get only returns valid JSON
		}
		c := cfg
		c.Cache = openTestCache(t)
		u := soloUnit(b, KindILAN, c)
		if err := c.Cache.Put(u.key(), payload); err != nil {
			t.Fatal(err)
		}
		got, err := RunOne(b, KindILAN, c, 0)
		if err != nil {
			t.Fatal(err)
		}
		var cached RunSample
		if json.Unmarshal(payload, &cached) == nil && u.validSolo(&cached) {
			return // a valid payload is served as it decodes
		}
		data, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(want) {
			t.Fatalf("payload %q served\n%.300s\nwant the cold sample\n%.300s", payload, data, want)
		}
		if st := c.Cache.Stats(); st.Errors != 1 {
			t.Fatalf("stats %+v: the discarded payload is not counted as an error", st)
		}
	})
}
