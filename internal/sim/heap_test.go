package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// eventHeap is a binary min-heap ordered by eventLess: the kernel's event
// queue until the calendar queue replaced it, kept as the reference
// ordering for the queue-equivalence property tests.
type eventHeap struct {
	ev []*event
}

func (h *eventHeap) len() int { return len(h.ev) }

func (h *eventHeap) less(i, j int) bool { return eventLess(h.ev[i], h.ev[j]) }

func (h *eventHeap) push(e *event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

func (h *eventHeap) pop() *event {
	top := h.ev[0]
	last := len(h.ev) - 1
	h.ev[0] = h.ev[last]
	h.ev[last] = nil // release for GC
	h.ev = h.ev[:last]
	h.siftDown(0)
	return top
}

func (h *eventHeap) siftDown(i int) {
	n := len(h.ev)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && h.less(right, left) {
			smallest = right
		}
		if !h.less(smallest, i) {
			return
		}
		h.ev[i], h.ev[smallest] = h.ev[smallest], h.ev[i]
		i = smallest
	}
}

// TestHeapOrdering pushes events in random order and verifies they pop in
// (time, seq) order.
func TestHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h eventHeap
	type key struct {
		at  Time
		seq uint64
	}
	var keys []key
	for i := 0; i < 1000; i++ {
		k := key{at: Time(rng.Intn(50)), seq: uint64(i)}
		keys = append(keys, k)
		h.push(&event{at: k.at, seq: k.seq})
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].at != keys[j].at {
			return keys[i].at < keys[j].at
		}
		return keys[i].seq < keys[j].seq
	})
	for i, want := range keys {
		got := h.pop()
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("pop %d: got (%v,%d), want (%v,%d)", i, got.at, got.seq, want.at, want.seq)
		}
	}
	if h.len() != 0 {
		t.Fatalf("heap not empty after draining: %d", h.len())
	}
}

// TestHeapProperty is a property-based check: for any sequence of pushes,
// repeated pops yield a non-decreasing (time, seq) sequence.
func TestHeapProperty(t *testing.T) {
	f := func(times []uint16) bool {
		var h eventHeap
		for i, v := range times {
			h.push(&event{at: Time(v), seq: uint64(i)})
		}
		prevAt, prevSeq := Time(-1), uint64(0)
		for h.len() > 0 {
			e := h.pop()
			if e.at < prevAt || (e.at == prevAt && e.seq <= prevSeq && prevAt >= 0) {
				return false
			}
			prevAt, prevSeq = e.at, e.seq
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestHeapInterleavedPushPop interleaves pushes with pops, as the engine
// does, and checks global ordering of the popped prefix at each step.
func TestHeapInterleavedPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h eventHeap
	var seq uint64
	last := Time(-1)
	for step := 0; step < 5000; step++ {
		if h.len() == 0 || rng.Intn(2) == 0 {
			at := last
			if at < 0 {
				at = 0
			}
			at += Time(rng.Intn(10))
			seq++
			h.push(&event{at: at, seq: seq})
			continue
		}
		e := h.pop()
		if e.at < last {
			t.Fatalf("time went backwards: %v after %v", e.at, last)
		}
		last = e.at
	}
}
