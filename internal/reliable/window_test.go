package reliable

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
)

// The map-based link state the pending ring and the receive window
// replaced, kept as the reference the randomized tests and the fuzz
// targets below drive them against.

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

// accept is the old duplicate test and floor advance of the receiving side.
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

// senderPair is the sender half of a link twice over: the real nodeState
// code over the ring, and the old map. Every operation is applied to both
// and check compares them.
type senderPair struct {
	ns   nodeState
	ol   outLink
	ref  refOutLink
	made map[*pendingMsg]bool
}

func newSenderPair() *senderPair {
	return &senderPair{
		ns:   nodeState{sh: sim.New(1).Shard(0)}, // carves the pendingMsgs
		ref:  refOutLink{pending: map[uint64]bool{}},
		made: map[*pendingMsg]bool{},
	}
}

// send tracks the next sequence number.
func (p *senderPair) send() {
	p.ol.nextSeq++
	p.made[p.ns.track(&p.ol, 1, p.ol.nextSeq, 0, [4]uint64{}, nil, false, 0)] = true
	p.ref.pending[p.ol.nextSeq] = true
}

// ack delivers one acknowledgement; the retire verdicts must agree.
func (p *senderPair) ack(seq, cum uint64) error {
	if got, want := p.ns.acked(&p.ol, seq, cum), p.ref.acked(seq, cum); got != want {
		return fmt.Errorf("ack(%d, cum %d) retired=%v, map says %v", seq, cum, got, want)
	}
	return nil
}

// giveUp abandons the pick'th (mod the count) pending message, as the
// daemon does when retransmissions run out; a no-op when none is pending.
func (p *senderPair) giveUp(pick int) error {
	live := p.ref.live()
	if len(live) == 0 {
		return nil
	}
	q := live[pick%len(live)]
	pm := p.ol.pending.get(q)
	if pm == nil || pm.seq != q {
		return fmt.Errorf("ring has %+v under seq %d", pm, q)
	}
	pm.done = true
	p.ol.pending.remove(q)
	p.ns.settle(pm)
	delete(p.ref.pending, q)
	return nil
}

// check compares the pending sets and the ring's front-slot invariant.
func (p *senderPair) check() error {
	if got, want := p.ol.pending.live(), p.ref.live(); !slices.Equal(got, want) {
		return fmt.Errorf("ring holds %v, map holds %v", got, want)
	}
	if r := &p.ol.pending; r.n > 0 && r.get(r.base) == nil {
		return fmt.Errorf("window [%d,+%d) starts on an empty slot", r.base, r.n)
	}
	return nil
}

// checkNoneLost: every pendingMsg ever made is pending or on the free list.
func (p *senderPair) checkNoneLost() error {
	free := 0
	for pm := p.ns.freePM; pm != nil; pm = pm.next {
		free++
	}
	if free+len(p.ref.pending) != len(p.made) {
		return fmt.Errorf("%d pendingMsgs made, %d pending + %d free", len(p.made), len(p.ref.pending), free)
	}
	return nil
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
		p := newSenderPair()
		for step := 0; step < 5000; step++ {
			var err error
			next := p.ol.nextSeq
			switch op := rng.Intn(11); {
			case op < 5 || next == 0:
				p.send()
			case op < 9:
				var seq uint64
				switch rng.Intn(4) {
				case 0:
					seq = uint64(rng.Int63n(int64(next) + 3)) // anything, sent or not
				default:
					seq = next - uint64(rng.Int63n(min(int64(next), 12))) // recent
				}
				cum := p.ref.floor
				switch rng.Intn(4) {
				case 0:
					cum = uint64(rng.Int63n(int64(next) + 1)) // anywhere, maybe behind the floor
				case 1:
					cum += uint64(rng.Int63n(int64(next-cum) + 1)) // a jump ahead
				}
				err = p.ack(seq, cum)
			default:
				err = p.giveUp(rng.Int())
			}
			if err == nil {
				err = p.check()
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
		if err := p.checkNoneLost(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzPendingRing is the same comparison over a fuzzed op stream: each
// byte picks an operation, the next one or two its operands. Acks name
// any sequence number up to two past the last one sent and any cumulative
// floor up to it — behind the current floor, or a jump over stretches
// still pending. check sorts the pending set at every step, so the stream
// is cut at 512 bytes (six doublings of the ring) to bound one input's cost.
func FuzzPendingRing(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 512)]
		p := newSenderPair()
		arg := func() uint64 { // the next operand byte, 0 once the stream runs dry
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return uint64(b)
		}
		for step := 0; len(ops) > 0; step++ {
			var err error
			next := p.ol.nextSeq
			switch op := arg() % 4; {
			case op < 2 || next == 0:
				p.send()
			case op == 2:
				seq := next + 2 - min(arg(), next+2)
				cum := next - min(arg(), next)
				err = p.ack(seq, cum)
			default:
				err = p.giveUp(int(arg()))
			}
			if err == nil {
				err = p.check()
			}
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		if err := p.checkNoneLost(); err != nil {
			t.Fatal(err)
		}
	})
}

// receiverPair is the receiver half twice over: the bitmap window and the
// old map.
type receiverPair struct {
	il  inLink
	ref refInLink
}

func newReceiverPair() *receiverPair {
	return &receiverPair{ref: refInLink{seen: map[uint64]struct{}{}}}
}

// accept delivers one arrival to both; the duplicate verdict and the
// cumulative floor must agree.
func (p *receiverPair) accept(seq uint64) error {
	got, want := p.il.accept(seq), p.ref.accept(seq)
	if got != want || p.il.cum != p.ref.cum {
		return fmt.Errorf("seq %d: dup=%v cum=%d, map says dup=%v cum=%d", seq, got, p.il.cum, want, p.ref.cum)
	}
	return nil
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
		p := newReceiverPair()
		hole := uint64(0) // a sequence number withheld for a while
		for step := 0; step < 20000; step++ {
			var seq uint64
			cum := p.ref.cum
			switch op := rng.Intn(20); {
			case op < 8:
				seq = cum + 1 // in order
			case op < 14:
				seq = cum + 1 + uint64(rng.Intn(6)) // a little ahead
			case op < 16:
				seq = cum + 1 + uint64(rng.Intn(700)) // far ahead
			case op < 19:
				seq = uint64(rng.Int63n(int64(cum) + 40)) // a duplicate, most likely
			default:
				if hole == 0 {
					hole = cum + 1 // open a hole at the floor...
				} else {
					hole = 0 // ...or let the old one finally close
				}
				continue
			}
			if seq == 0 || seq == hole {
				continue
			}
			if err := p.accept(seq); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
		if len(p.il.seen) < 8 {
			t.Fatalf("seed %d: window never grew past %d words; the holes did not bite", seed, len(p.il.seen))
		}
	}
}

// FuzzRecvWindow is the same comparison over a fuzzed arrival stream: each
// byte pair is one arrival, placed relative to the cumulative floor — at
// it, a little or far ahead (up to 4096, six doublings of the window), or
// at or below it. Holes are whatever the stream never delivers.
func FuzzRecvWindow(f *testing.F) {
	f.Fuzz(func(t *testing.T, arrivals []byte) {
		p := newReceiverPair()
		for step := 0; step+1 < len(arrivals); step += 2 {
			kind, off := arrivals[step]%4, uint64(arrivals[step+1])
			cum := p.ref.cum
			var seq uint64
			switch kind {
			case 0:
				seq = cum + 1 // in order
			case 1:
				seq = cum + 1 + off%8 // a little ahead
			case 2:
				seq = cum + 1 + off<<4 // far ahead
			default:
				seq = cum + 8 - min(off, cum+7) // around or below the floor
			}
			if err := p.accept(seq); err != nil {
				t.Fatalf("arrival %d: %v", step/2, err)
			}
		}
	})
}
