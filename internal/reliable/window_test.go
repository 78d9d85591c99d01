package reliable

import (
	"math/rand"
	"slices"
	"testing"
)

// The map-based link state the pending ring and the receive window
// replaced, kept as the reference the randomized test below drives them
// against.

type refOutLink struct {
	floor   uint64
	pending map[uint64]bool
}

// acked is the old handleAck: the per-seq ack, then (floor, cum].
func (r *refOutLink) acked(seq, cum uint64) bool {
	retire := func(q uint64) bool {
		if !r.pending[q] {
			return false
		}
		delete(r.pending, q)
		return true
	}
	retired := retire(seq)
	for q := r.floor + 1; q <= cum; q++ {
		if retire(q) {
			retired = true
		}
	}
	if cum > r.floor {
		r.floor = cum
	}
	return retired
}

func (r *refOutLink) live() []uint64 {
	var qs []uint64
	for q := range r.pending {
		qs = append(qs, q)
	}
	slices.Sort(qs)
	return qs
}

type refInLink struct {
	cum  uint64
	seen map[uint64]struct{}
}

// accept is the old handleData duplicate test and floor advance.
func (r *refInLink) accept(seq uint64) bool {
	_, above := r.seen[seq]
	if seq <= r.cum || above {
		return true
	}
	r.seen[seq] = struct{}{}
	for {
		if _, ok := r.seen[r.cum+1]; !ok {
			return false
		}
		delete(r.seen, r.cum+1)
		r.cum++
	}
}

func (r *pendingRing) live() []uint64 {
	var qs []uint64
	for q := r.base; q < r.base+r.n; q++ {
		if r.get(q) != nil {
			qs = append(qs, q)
		}
	}
	return qs
}

// TestPendingRingMapEquivalence drives the sender half of a link — track,
// acknowledge, give up — through the real nodeState code over the ring
// and through the old map, with acks that arrive out of order, repeat,
// name sequence numbers never sent, and carry cumulative floors that
// jump over stretches still pending, and with give-ups that punch holes
// inside the window and at its front. After every step the retire verdict
// and the pending set must agree, and no pendingMsg may be lost: each is
// either pending or back on the free list.
func TestPendingRingMapEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ns := &nodeState{}
		ol := &outLink{}
		ref := &refOutLink{pending: map[uint64]bool{}}
		made := map[*pendingMsg]bool{}
		for step := 0; step < 5000; step++ {
			switch op := rng.Intn(10); {
			case op < 5 || ol.nextSeq == 0: // send
				ol.nextSeq++
				made[ns.track(ol, 1, ol.nextSeq, 0, [4]uint64{}, nil, false, 0)] = true
				ref.pending[ol.nextSeq] = true
			case op < 9: // ack
				var seq uint64
				switch rng.Intn(4) {
				case 0:
					seq = uint64(rng.Int63n(int64(ol.nextSeq) + 3)) // anything, sent or not
				default:
					seq = ol.nextSeq - uint64(rng.Int63n(min(int64(ol.nextSeq), 12))) // recent
				}
				cum := ref.floor
				switch rng.Intn(4) {
				case 0:
					cum = uint64(rng.Int63n(int64(ol.nextSeq) + 1)) // anywhere, maybe behind the floor
				case 1:
					cum += uint64(rng.Int63n(int64(ol.nextSeq-cum) + 1)) // a jump ahead
				}
				got, want := ns.acked(ol, seq, cum), ref.acked(seq, cum)
				if got != want {
					t.Fatalf("seed %d step %d: ack(%d, cum %d) retired=%v, map says %v", seed, step, seq, cum, got, want)
				}
			default: // give up on a pending message, as the daemon does
				live := ref.live()
				if len(live) == 0 {
					continue
				}
				q := live[rng.Intn(len(live))]
				pm := ol.pending.get(q)
				if pm == nil || pm.seq != q {
					t.Fatalf("seed %d step %d: ring has %+v under seq %d", seed, step, pm, q)
				}
				pm.done = true
				ol.pending.remove(q)
				ns.settle(pm)
				delete(ref.pending, q)
			}
			if got, want := ol.pending.live(), ref.live(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: ring holds %v, map holds %v", seed, step, got, want)
			}
			if r := &ol.pending; r.n > 0 && r.get(r.base) == nil {
				t.Fatalf("seed %d step %d: window [%d,+%d) starts on an empty slot", seed, step, r.base, r.n)
			}
		}
		free := 0
		for pm := ns.freePM; pm != nil; pm = pm.next {
			free++
		}
		if free+len(ref.pending) != len(made) {
			t.Fatalf("seed %d: %d pendingMsgs made, %d pending + %d free", seed, len(made), len(ref.pending), free)
		}
	}
}

// TestRecvWindowMapEquivalence feeds the receiver half arrivals in every
// order a faulty network produces — in sequence, duplicated, reordered
// far enough ahead to grow the window several times, and around holes
// (sequence numbers the sender gave up on, which never arrive, or arrive
// very late) — and requires the bitmap window to give the old map's
// duplicate verdict and cumulative floor every time.
func TestRecvWindowMapEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		il := &inLink{}
		ref := &refInLink{seen: map[uint64]struct{}{}}
		hole := uint64(0) // a sequence number withheld for a while
		for step := 0; step < 20000; step++ {
			var seq uint64
			switch op := rng.Intn(20); {
			case op < 8:
				seq = ref.cum + 1 // in order
			case op < 14:
				seq = ref.cum + 1 + uint64(rng.Intn(6)) // a little ahead
			case op < 16:
				seq = ref.cum + 1 + uint64(rng.Intn(700)) // far ahead
			case op < 19:
				seq = uint64(rng.Int63n(int64(ref.cum) + 40)) // a duplicate, most likely
			default:
				if hole == 0 {
					hole = ref.cum + 1 // open a hole at the floor...
				} else {
					hole = 0 // ...or let the old one finally close
				}
				continue
			}
			if seq == 0 || seq == hole {
				continue
			}
			got, want := il.accept(seq), ref.accept(seq)
			if got != want || il.cum != ref.cum {
				t.Fatalf("seed %d step %d: seq %d: dup=%v cum=%d, map says dup=%v cum=%d",
					seed, step, seq, got, il.cum, want, ref.cum)
			}
		}
		if len(il.seen) < 8 {
			t.Fatalf("seed %d: window never grew past %d words; the holes did not bite", seed, len(il.seen))
		}
	}
}
