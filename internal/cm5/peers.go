package cm5

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
// Values are carved from chunks the table owns, sized 1, 1, 2, 4, 8 and
// then peerChunk each, so a table makes O(log peers) objects up to 16
// peers and one per peerChunk after, and never leaves more than
// peerChunk-1 values unused. A chunk is never reallocated, which is what
// keeps a value's address fixed.
//
// The zero PeerTable is empty and ready to use.
type PeerTable[T any] struct {
	scan  []peerRef[T]    // peers in first-touch order, while there are few
	pages []*[peerPage]*T // pages[peer/peerPage][peer%peerPage] once spilled
	free  []T             // the newest chunk's values not yet handed out
}

// peerRef is one scan entry: a peer and its value.
type peerRef[T any] struct {
	peer int32
	v    *T
}

const (
	// peerInline is the peer count kept in the scan before the table
	// switches to pages.
	peerInline = 8
	peerPage   = 64
	// peerChunk caps a value chunk: past it the table grows by one
	// chunk per peerChunk peers.
	peerChunk = 8
)

// At returns peer's slot, zero-valued on first touch. The pointer stays
// valid for the life of the table, whatever is touched later.
func (t *PeerTable[T]) At(peer int) *T {
	if t.pages == nil {
		for i := range t.scan {
			if int(t.scan[i].peer) == peer {
				return t.scan[i].v
			}
		}
	} else if pg := peer / peerPage; pg < len(t.pages) && t.pages[pg] != nil {
		if v := t.pages[pg][peer%peerPage]; v != nil {
			return v
		}
	}
	return t.add(peer)
}

// add enters peer, which is not in the table, and returns its new value.
func (t *PeerTable[T]) add(peer int) *T {
	v := t.carve()
	if t.pages != nil {
		*t.slot(peer) = v
		return v
	}
	if n := len(t.scan); n < peerInline {
		if n == cap(t.scan) { // 1, then 4, then peerInline entries
			t.scan = append(make([]peerRef[T], 0, min(max(4*n, 1), peerInline)), t.scan...)
		}
		t.scan = append(t.scan, peerRef[T]{int32(peer), v})
		return v
	}
	for _, r := range t.scan {
		*t.slot(int(r.peer)) = r.v
	}
	t.scan = nil
	*t.slot(peer) = v
	return v
}

// carve hands out the next zero value, starting a chunk when the newest
// is used up. Each peer has one value, so until the spill the values
// handed out number len(t.scan), and the next chunk is that large.
func (t *PeerTable[T]) carve() *T {
	if len(t.free) == 0 {
		size := peerChunk
		if t.pages == nil {
			size = min(max(len(t.scan), 1), peerChunk)
		}
		t.free = make([]T, size)
	}
	v := &t.free[0]
	t.free = t.free[1:]
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
