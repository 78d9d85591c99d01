package cm5

import "repro/internal/sim"

// PeerTable is the per-peer state one node keeps about the nodes it
// actually talks to: injection counters here, link state in the reliable
// transport. A dense array over all n peers made machine memory
// O(nodes²); in practice a node talks to a handful of peers, so the table
// is sparse — a short scan over the first few peers touched, switching to
// a paged direct index for genuinely fan-out-heavy nodes (a kv server and
// its clients). Neither form hashes, and lookups of known peers allocate
// nothing. Memory is O(peers touched), plus one pointer per peerPage node
// ids up to the largest peer for a node that outgrew the scan.
//
// The table holds pointers only: each value is carved on the node's shard
// (sim.Carve), from chunks that every table of that value type on the
// shard shares, and the scan is inline, so a table's own objects are its
// pages, O(log peers), none until it spills, and a value's address is
// fixed for the engine's life.
//
// The zero PeerTable is empty and ready to use.
type PeerTable[T any] struct {
	// The scan: the first n peers touched and their values, while there
	// are few.
	peers [peerInline]int32
	n     int32
	vals  [peerInline]*T
	pages []*[peerPage]*T // pages[peer/peerPage][peer%peerPage] once spilled
}

const (
	// peerInline is the peer count kept in the scan before the table
	// switches to pages.
	peerInline = 8
	peerPage   = 64
)

// At returns peer's slot, zero-valued on first touch, when it is carved on
// sh, the shard of the node that owns the table. The pointer stays valid
// for the life of the engine, whatever is touched later.
func (t *PeerTable[T]) At(sh *sim.Shard, peer int) *T {
	if t.pages == nil {
		for i, q := range t.peers[:t.n] {
			if int(q) == peer {
				return t.vals[i]
			}
		}
	} else if pg := peer / peerPage; pg < len(t.pages) && t.pages[pg] != nil {
		if v := t.pages[pg][peer%peerPage]; v != nil {
			return v
		}
	}
	return t.add(sh, peer)
}

// add enters peer, which is not in the table, and returns its new value.
func (t *PeerTable[T]) add(sh *sim.Shard, peer int) *T {
	v := sim.Carve[T](sh)
	if t.pages != nil {
		*t.slot(peer) = v
		return v
	}
	if t.n < peerInline {
		t.peers[t.n], t.vals[t.n] = int32(peer), v
		t.n++
		return v
	}
	for i, q := range t.peers {
		*t.slot(int(q)) = t.vals[i]
	}
	*t.slot(peer) = v
	return v
}

// slot returns peer's cell in the paged index, growing it to reach.
func (t *PeerTable[T]) slot(peer int) **T {
	pg := peer / peerPage
	for pg >= len(t.pages) {
		t.pages = append(t.pages, nil)
	}
	if t.pages[pg] == nil {
		t.pages[pg] = new([peerPage]*T)
	}
	return &t.pages[pg][peer%peerPage]
}
