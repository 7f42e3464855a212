package cellcache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzGet: whatever bytes an entry's file holds, Get returns a miss that
// drops the entry, or a hit whose payload is the well-formed envelope's
// JSON for the requested key. It never panics.
func FuzzGet(f *testing.F) {
	key := testKey("fuzz")
	for _, payload := range []string{`{"v":1}`, `null`, `"x"`, `[]`} {
		data, err := json.Marshal(envelope{Version: Version, Key: key, Payload: json.RawMessage(payload)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version":1,"key":"` + key + `","payload":{"v`))
	f.Add([]byte(`{"version":2,"key":"` + key + `","payload":{}}`))
	f.Add([]byte(`{"version":1,"key":"` + testKey("other") + `","payload":{}}`))
	f.Add([]byte(`{"version":1,"key":"` + key + `"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := mustOpen(t, t.TempDir(), 0)
		if err := c.Put(key, []byte(`{"v":1}`)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(c.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		payload, ok := c.Get(key)
		if !ok {
			if c.Len() != 0 {
				t.Fatal("a missed entry is still indexed")
			}
			return
		}
		var env envelope
		if json.Unmarshal(data, &env) != nil || env.Version != Version || env.Key != key {
			t.Fatalf("served a hit from %q", data)
		}
		if len(payload) == 0 || !json.Valid(payload) {
			t.Fatalf("served payload %q", payload)
		}
	})
}

// FuzzLoadIndex: whatever index.json holds, Open leaves a size that is the
// sum of its entries' non-negative sizes, and a Put then holds the cache
// within its cap (or down to the entry just written).
func FuzzLoadIndex(f *testing.F) {
	k1, k2 := testKey("a"), testKey("b")
	f.Add([]byte(`{"version":1,"seq":2,"entries":{"` + k1 + `":{"size":100,"used":1},"` + k2 + `":{"size":200,"used":2}}}`))
	f.Add([]byte(`{"version":1,"seq":1,"entries":{"` + k1 + `":{"size":-1000,"used":1}}}`))
	f.Add([]byte(`{"version":1,"seq":9,"entries":{"` + k1 + `":{"size":9223372036854775807,"used":1},"` + k2 + `":{"size":1,"used":9}}}`))
	f.Add([]byte(`{"version":1,"seq":-5,"entries":{"` + k1 + `":{"size":300,"used":99}}}`))
	f.Add([]byte(`{"version":1,"entries":{"zz":{"size":1}}}`))
	f.Add([]byte(`{"version":1,"entries":null}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxBytes = 400
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, objectsDir), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, indexName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c := mustOpen(t, dir, maxBytes)
		checkSize := func() {
			t.Helper()
			var sum int64
			for k, e := range c.index {
				if e.Size < 0 || sum+e.Size < sum {
					t.Fatalf("entry %s has size %d (sum so far %d)", k, e.Size, sum)
				}
				sum += e.Size
			}
			if c.size != sum {
				t.Fatalf("size %d, entries sum to %d", c.size, sum)
			}
		}
		checkSize()
		key := testKey("new")
		if err := c.Put(key, []byte(`{"v":1}`)); err != nil {
			t.Fatal(err)
		}
		checkSize()
		if c.size > maxBytes && c.Len() > 1 {
			t.Fatalf("size %d over the %d-byte cap with %d entries", c.size, maxBytes, c.Len())
		}
		if _, ok := c.Get(key); !ok {
			t.Fatal("the entry just written misses")
		}
	})
}
