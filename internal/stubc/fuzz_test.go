package stubc

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse: whatever the source, Parse either rejects it with an error or
// returns a File that Generate turns into Go that go/format accepts
// (Generate formats its output and fails when it does not parse) — never a
// panic in either. Seeded from every checked-in interface file, so each
// construct the applications use, `compatible … when disjoint(…)`
// included, starts in the corpus.
func FuzzParse(f *testing.F) {
	var seeds []string
	for _, pat := range []string{"gentest/*.rpc", "../apps/*/*.rpc"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, m...)
	}
	if len(seeds) < 2 {
		f.Fatalf("found only %d .rpc seed files: %v", len(seeds), seeds)
	}
	for _, path := range seeds {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse(src)
		if err != nil {
			return
		}
		if _, err := Generate(file); err != nil {
			t.Fatalf("Parse accepted a file Generate cannot emit: %v\nsource:\n%s", err, src)
		}
	})
}
