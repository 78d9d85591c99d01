package cm5

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// peerVal stands for a table's per-peer state.
type peerVal struct{ peer, touches uint64 }

// TestPeerTable drives the table against a map of pointers, with peers
// touched in a drawn order and revisited at random, on both sides of the
// spill from the scan to the pages. A value is zero on first touch, every
// value ever handed out keeps its address and its last write, and a table
// makes three objects per doubling of its peers plus one per full chunk,
// not one per peer.
func TestPeerTable(t *testing.T) {
	for _, peers := range []int{1, 4, 8, 9, 48, 65, 200} {
		rng := rand.New(rand.NewSource(int64(peers)))
		order := rng.Perm(peers)
		var tbl PeerTable[peerVal]
		model := map[int]*peerVal{}
		for next := 0; next < peers; {
			p := order[next]
			if next > 0 && rng.Intn(3) == 0 {
				p = order[rng.Intn(next)] // revisit a known peer
			} else {
				next++
			}
			v := tbl.At(p)
			if want, ok := model[p]; !ok {
				if *v != (peerVal{}) {
					t.Fatalf("%d peers: peer %d reads %+v on first touch", peers, p, *v)
				}
				model[p] = v
				v.peer = uint64(p)
			} else if v != want {
				t.Fatalf("%d peers: peer %d moved from %p to %p", peers, p, want, v)
			}
			v.touches++
			for q, want := range model {
				if got := tbl.At(q); got != want || got.peer != uint64(q) {
					t.Fatalf("%d peers, after touching %d: peer %d at %p reads %+v, want %p", peers, p, q, got, *got, want)
				}
			}
		}

		objects := testing.AllocsPerRun(10, func() {
			var tbl PeerTable[peerVal]
			for _, p := range order {
				tbl.At(p)
			}
		})
		if bound := 3*bits.Len(uint(peers)) + peers/peerChunk; objects > float64(bound) {
			t.Errorf("%d peers: %.0f objects per table, want at most %d", peers, objects, bound)
		}
	}
}

// BenchmarkPeerTableAt is the hot lookup: a peer already in the table, at
// a client's fan-out (4, the scan) and a kv server's (48, the pages). Each
// op touches the next known peer, as the injection counters do.
func BenchmarkPeerTableAt(b *testing.B) {
	for _, peers := range []int{4, 48} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			var t PeerTable[uint64]
			for p := 0; p < peers; p++ {
				*t.At(p) = uint64(p)
			}
			b.ReportAllocs()
			b.ResetTimer()
			p := 0
			for i := 0; i < b.N; i++ {
				*t.At(p)++
				if p++; p == peers {
					p = 0
				}
			}
		})
	}
}
