package jsonio

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// doc is the reference shape: every Writer method in both layouts.
type doc struct {
	S string             `json:"s"`
	M map[string]float64 `json:"m"`
	L []float64          `json:"l"`
	E []float64          `json:"e"`
	O struct{}           `json:"o"`
	N []float64          `json:"n"`
	I int                `json:"i"`
	U uint64             `json:"u"`
	B bool               `json:"b"`
}

// FuzzWriter: the Writer's bytes equal json.Marshal's (compact) and
// json.MarshalIndent's with two spaces, or both fail on a non-finite x.
func FuzzWriter(f *testing.F) {
	f.Add("a<b>&\u2028\u2029\x00\x1f\x7f\xff\xc3\"\\é", 1e-7, int64(-1))
	f.Add("", math.Copysign(0, -1), int64(math.MinInt64))
	f.Add("x", 1e21, int64(math.MaxInt64))
	f.Add("y", 123456789.125, int64(0))
	f.Add("z", 5e-324, int64(7))
	f.Fuzz(func(t *testing.T, s string, x float64, i int64) {
		ref := doc{S: s, M: map[string]float64{s: x, s + "~": -x}, L: []float64{x, 1 / x}, E: []float64{},
			I: int(i), U: uint64(i), B: i&1 == 1}
		for _, indent := range []bool{false, true} {
			want, wantErr := json.Marshal(ref)
			if indent {
				want, wantErr = json.MarshalIndent(ref, "", "  ")
			}
			w := NewWriter(indent)
			w.Begin('{')
			w.Key("s").String(s)
			w.Key("m").Begin('{')
			keys := []string{s, s + "~"}
			vals := []float64{x, -x}
			if keys[1] < keys[0] {
				keys[0], keys[1], vals[0], vals[1] = keys[1], keys[0], vals[1], vals[0]
			}
			for k := range keys {
				w.Key(keys[k]).Float(vals[k])
			}
			w.End('}')
			w.Key("l").Floats(ref.L)
			w.Key("e").Floats(ref.E)
			w.Key("o").Begin('{')
			w.End('}')
			w.Key("n").Floats(nil)
			w.Key("i").Int(ref.I)
			w.Key("u").Uint(ref.U)
			w.Key("b").Bool(ref.B)
			w.End('}')
			if (w.Err() == nil) != (wantErr == nil) {
				t.Fatalf("indent %v: Writer error %v, encoding/json error %v", indent, w.Err(), wantErr)
			}
			if wantErr == nil && !bytes.Equal(w.Bytes(), want) {
				t.Fatalf("indent %v:\n got %q\nwant %q", indent, w.Bytes(), want)
			}
		}
	})
}
