package sim

import (
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// Record types of three sizes: many to a chunk, four to a capped chunk,
// and one larger than the cap.
type (
	smallRec struct{ id, pad uint64 }
	wideRec  struct {
		id  uint64
		pad [124]uint64
	}
	hugeRec struct {
		id  uint64
		pad [640]uint64
	}
)

// carveN carves n values of T on sh, each zero when handed out, and stamps
// value i with i through id. It returns the values and the length of every
// chunk they came from, in order. It may run off the test's goroutine.
func carveN[T comparable](t *testing.T, sh *Shard, n int, id func(*T) *uint64) (vs []*T, chunks []int) {
	var zero T
	for i := range n {
		s := slabOf[T](sh)
		fresh := s == nil || len(s.free) == 0
		v := Carve[T](sh)
		if *v != zero {
			t.Errorf("%T %d: carved a non-zero value", zero, i)
			return vs, chunks
		}
		if fresh {
			chunks = append(chunks, len(slabOf[T](sh).free)+1)
		}
		*id(v) = uint64(i)
		vs = append(vs, v)
	}
	return vs, chunks
}

// checkKept fails unless the values are distinct and each still reads the
// stamp it was given, however many chunks were carved after it.
func checkKept[T any](t *testing.T, vs []*T, id func(*T) *uint64) {
	t.Helper()
	seen := map[*T]bool{}
	for i, v := range vs {
		if seen[v] {
			t.Fatalf("%T %d at %p was handed out twice", *v, i, v)
		}
		seen[v] = true
		if got := *id(v); got != uint64(i) {
			t.Fatalf("%T %d at %p reads %d: moved or overwritten", *v, i, v, got)
		}
	}
}

// TestSlab holds Carve to its contract: a zero value whose address and
// contents outlive any later growth, chunks of 1, 1, 2, 4, … values capped
// at slabBytes (one value when a value is larger), one slab per type per
// shard, and no chunk shared by two shards carving at once (run it under
// -race as well).
func TestSlab(t *testing.T) {
	smallID := func(r *smallRec) *uint64 { return &r.id }
	wideID := func(r *wideRec) *uint64 { return &r.id }
	hugeID := func(r *hugeRec) *uint64 { return &r.id }

	sh := New(1).Shard(0)
	small, smallChunks := carveN(t, sh, 1000, smallID)
	wide, wideChunks := carveN(t, sh, 12, wideID)
	huge, hugeChunks := carveN(t, sh, 3, hugeID)
	for _, c := range []struct {
		name      string
		size      uintptr
		got, want []int
	}{
		{"16 B", unsafe.Sizeof(smallRec{}), smallChunks, []int{1, 1, 2, 4, 8, 16, 32, 64, 128, 256, 256, 256}},
		{"1000 B", unsafe.Sizeof(wideRec{}), wideChunks, []int{1, 1, 2, 4, 4}},
		{"5128 B", unsafe.Sizeof(hugeRec{}), hugeChunks, []int{1, 1, 1}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s values: chunks of %v, want %v", c.name, c.got, c.want)
		}
		for _, n := range c.got {
			if n > 1 && uintptr(n)*c.size > slabBytes {
				t.Errorf("%s values: a chunk of %d is over %d bytes", c.name, n, slabBytes)
			}
		}
	}
	checkKept(t, small, smallID)
	checkKept(t, wide, wideID)
	checkKept(t, huge, hugeID)
	if len(sh.slabs) != 3 {
		t.Errorf("three types carved on one shard made %d slabs", len(sh.slabs))
	}

	// Two shards of one engine carve at once, as their runners do in a
	// span: neither may hand out the other's values.
	e := NewSharded(1, 2)
	var per [2][]*smallRec
	var wg sync.WaitGroup
	for i := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[i], _ = carveN(t, e.Shard(i), 1000, smallID)
		}()
	}
	wg.Wait()
	for i := range per {
		checkKept(t, per[i], smallID)
	}
	mine := map[*smallRec]bool{}
	for _, v := range per[0] {
		mine[v] = true
	}
	for _, v := range per[1] {
		if mine[v] {
			t.Fatalf("shards 0 and 1 were both handed %p", v)
		}
	}
}
