package stubc

import (
	"bytes"
	"os"
	"testing"
)

// TestGeneratedStubsCurrent regenerates every checked-in stub file from
// its .rpc specification and requires byte equality, so a hand edit of
// generated code, or a generator change without the regeneration
// (go run ./cmd/stubgen -in spec.rpc -out stubs.go), fails here.
func TestGeneratedStubsCurrent(t *testing.T) {
	for spec, stubs := range map[string]string{
		"../apps/kv/kv.rpc":             "../apps/kv/gen/stubs.go",
		"../apps/triangle/triangle.rpc": "../apps/triangle/gen/stubs.go",
		"../apps/tsp/tsp.rpc":           "../apps/tsp/gen/stubs.go",
		"../apps/sor/sor.rpc":           "../apps/sor/gen/stubs.go",
		"../apps/water/water.rpc":       "../apps/water/gen/stubs.go",
		"gentest/alltypes.rpc":          "gentest/stubs.go",
	} {
		src, err := os.ReadFile(spec)
		if err != nil {
			t.Fatal(err)
		}
		f, err := Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		want, err := Generate(f)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if got, err := os.ReadFile(stubs); err != nil {
			t.Fatal(err)
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s is not what %s generates: go run ./cmd/stubgen -in %s -out %s", stubs, spec, spec, stubs)
		}
	}
}
