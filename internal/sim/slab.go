package sim

import "unsafe"

const (
	// slabBytes caps a slab chunk: past it a type grows by one chunk of
	// about this many bytes (at least one value) at a time.
	slabBytes = 4 << 10
	// slabKinds is the room a shard's slab table is made with, at its first
	// Carve: the record types of a full stack. A shard that carves more
	// types grows it.
	slabKinds = 8
)

// slab is one shard's carving state for values of type T. The type's first
// value lives in the slab itself, so a shard's first record of a type costs
// one object, as a plain allocation would.
type slab[T any] struct {
	free  []T // the newest chunk's values not yet handed out
	n     int // values handed out
	first T
}

// Carve returns a zeroed *T for a record that sh's code pools on its own
// free list: the miss path of a per-node pool. Values are carved from
// chunks of 1, 1, 2, 4, … values, each at most slabBytes, that belong to
// sh alone, so a pool warms with O(log records) objects rather than one
// per record and sharded runs share no chunk. A chunk is never
// reallocated, so a value's address is fixed for the engine's life; the
// caller never frees it, only recycles it. Like every Shard method, Carve
// runs in sh's own context or during setup.
func Carve[T any](sh *Shard) *T {
	if s := slabOf[T](sh); s != nil {
		return s.carve()
	}
	if sh.slabs == nil {
		sh.slabs = make([]any, 0, slabKinds)
	}
	s := &slab[T]{n: 1}
	sh.slabs = append(sh.slabs, s)
	return &s.first
}

// slabOf returns sh's slab of T, nil before T's first Carve on sh.
func slabOf[T any](sh *Shard) *slab[T] {
	for _, k := range sh.slabs {
		if s, ok := k.(*slab[T]); ok {
			return s
		}
	}
	return nil
}

// carve hands out the next value, starting a chunk as large as every value
// handed out so far (up to the cap) when the newest is used up.
func (s *slab[T]) carve() *T {
	if len(s.free) == 0 {
		perChunk := max(slabBytes/max(int(unsafe.Sizeof(s.first)), 1), 1)
		s.free = make([]T, min(s.n, perChunk))
	}
	s.n++
	v := &s.free[0]
	s.free = s.free[1:]
	return v
}
