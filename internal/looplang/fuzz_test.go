package looplang

import (
	"strings"
	"testing"
)

// FuzzParse drives the document parser with arbitrary bytes: it must never
// panic, and every document it accepts must validate, have a digest, and
// either fail to build with an error or build into a valid program whose
// chunks compute, hint and access within their regions, whatever the
// chunking. Validate's limits bound what a build costs, so no accepted
// document is skipped.
func FuzzParse(f *testing.F) {
	f.Add(goodDoc)
	f.Add(`{}`)
	f.Add(`{"name":"x","steps":1,"loops":[{"name":"l","iters":4,"tasks":2}]}`)
	f.Add(`not json at all`)
	f.Add(`{"name":"x","steps":-1}`)
	f.Add(`{"name":"x","steps":1,"regions":[{"name":"v","sizeMB":8796093022208}],"loops":[{"name":"l","iters":4,"tasks":2,"streams":[{"region":"v","kbPerIter":1}]}]}`)
	f.Add(`{"name":"x","steps":1,"regions":[{"name":"v"}],"loops":[{"name":"l","iters":4,"tasks":2,"streams":[{"region":"v","kbPerIter":9007199254740992}]}]}`)
	f.Add(`{"name":"x","steps":3,"regions":[{"name":"v","sizeMB":1048576,"placement":"node:3"}],"loops":[{"name":"l","iters":1048576,"tasks":7,"computeMicros":1e9,"imbalance":{"profile":"wavefront"},"spans":[{"region":"v","kbPerIter":1024,"pattern":"transpose"}]}]}`)
	f.Fuzz(func(t *testing.T, data string) {
		doc, err := Parse(strings.NewReader(data))
		if err != nil {
			return
		}
		// Accepted documents must be internally consistent.
		if err := doc.Validate(); err != nil {
			t.Fatalf("parsed document fails validation: %v", err)
		}
		if len(doc.Digest()) != 64 {
			t.Fatal("digest is not a SHA-256")
		}
		prog, err := doc.Build(newM())
		if err != nil {
			return // clean build failure is fine (e.g. unsized span region)
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("built program invalid: %v", err)
		}
		for _, l := range prog.Loops {
			lo, hi := l.ChunkBounds(l.Tasks - 1)
			for _, r := range [][2]int{{0, 1}, {lo, hi}, {0, l.Iters}} {
				sec, acc := l.Demand(r[0], r[1])
				if !(sec >= 0) {
					t.Fatalf("loop %s chunk %v computes %g s", l.Name, r, sec)
				}
				for _, a := range acc {
					if end := a.Offset + max(a.Bytes, a.Span); a.Offset < 0 || end > a.Region.Size() {
						t.Fatalf("loop %s chunk %v reads [%d, %d) of region %s (size %d)",
							l.Name, r, a.Offset, end, a.Region.Name(), a.Region.Size())
					}
				}
				if l.Hint != nil {
					l.Hint(r[0], r[1])
				}
			}
		}
	})
}
