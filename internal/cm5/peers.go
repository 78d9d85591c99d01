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
// The zero PeerTable is empty and ready to use.
type PeerTable[T any] struct {
	keys  []int32 // peers in first-touch order, while there are few
	vals  []*T
	pages []*[peerPage]*T // pages[peer/peerPage][peer%peerPage] once spilled
}

const (
	// peerInline is the peer count kept in the scan arrays before the
	// table switches to pages.
	peerInline = 8
	peerPage   = 64
)

// At returns peer's slot, zero-valued on first touch. The pointer stays
// valid for the life of the table, whatever is touched later.
func (t *PeerTable[T]) At(peer int) *T {
	if t.pages != nil {
		slot := t.slot(peer)
		if *slot == nil {
			*slot = new(T)
		}
		return *slot
	}
	for i, k := range t.keys {
		if int(k) == peer {
			return t.vals[i]
		}
	}
	v := new(T)
	if len(t.keys) < peerInline {
		t.keys = append(t.keys, int32(peer))
		t.vals = append(t.vals, v)
		return v
	}
	for i, k := range t.keys {
		*t.slot(int(k)) = t.vals[i]
	}
	t.keys, t.vals = nil, nil
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
