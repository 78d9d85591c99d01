// Package triangle implements the Triangle puzzle of section 4.2.1: an
// exhaustive breadth-first search for peg-solitaire solution counts on a
// triangular board, parallelized with a distributed transposition table.
// Every extension of a position is sent to the table's owner as a small
// asynchronous RPC — the paper's archetype of a fine-grained application
// that sends many small messages.
package triangle

import (
	"fmt"
	"math/bits"
)

// Board holds the static structure of a triangular peg board of side N:
// cell indexing, the legal jump moves, and the symmetry group.
type Board struct {
	N     int
	Cells int
	// moves lists all (src, mid, dst) jump triples.
	moves [][3]uint8
	// perms[k][i] is the image of cell i under the k-th of the 6
	// symmetries of the triangle.
	perms [6][]uint8
	// Empty is the initially empty cell (the "center" hole).
	Empty int
}

// cellIndex maps (row, col) to a cell number; row 0 is the apex.
func cellIndex(r, c int) int { return r*(r+1)/2 + c }

// NewBoard builds the board of side n. The initially empty hole is the
// canonical "center": the middle cell of row n/2 — for size 6 that is
// (row 3, col 1), one of the three central cells.
func NewBoard(n int) *Board {
	return NewBoardAt(n, cellIndex(n/2, (n/2)/2))
}

// NewBoardAt builds the board of side n with the initially empty hole at
// cell empty.
func NewBoardAt(n, empty int) *Board {
	if n < 3 || n > 7 {
		panic(fmt.Sprintf("triangle: side %d out of supported range [3,7]", n))
	}
	b := &Board{N: n, Cells: n * (n + 1) / 2}
	if b.Cells > 32 {
		panic("triangle: board does not fit in 32 bits")
	}
	if empty < 0 || empty >= b.Cells {
		panic(fmt.Sprintf("triangle: empty cell %d out of range", empty))
	}
	b.Empty = empty

	// Moves: jumps along the three lattice directions, both ways.
	dirs := [3][2]int{{0, 1}, {1, 0}, {1, 1}}
	valid := func(r, c int) bool { return r >= 0 && r < n && c >= 0 && c <= r }
	for r := 0; r < n; r++ {
		for c := 0; c <= r; c++ {
			for _, d := range dirs {
				for _, sgn := range [2]int{1, -1} {
					mr, mc := r+sgn*d[0], c+sgn*d[1]
					dr, dc := r+2*sgn*d[0], c+2*sgn*d[1]
					if valid(mr, mc) && valid(dr, dc) {
						b.moves = append(b.moves, [3]uint8{
							uint8(cellIndex(r, c)),
							uint8(cellIndex(mr, mc)),
							uint8(cellIndex(dr, dc)),
						})
					}
				}
			}
		}
	}

	// Symmetries: write each cell in barycentric coordinates (x,y,z) with
	// x+y+z = n-1; the triangle's symmetry group is all 6 permutations of
	// the coordinates.
	permTable := [6][3]int{
		{0, 1, 2}, {1, 2, 0}, {2, 0, 1}, // rotations
		{0, 2, 1}, {2, 1, 0}, {1, 0, 2}, // reflections
	}
	for k, pt := range permTable {
		b.perms[k] = make([]uint8, b.Cells)
		for r := 0; r < n; r++ {
			for c := 0; c <= r; c++ {
				xyz := [3]int{n - 1 - r, c, r - c}
				img := [3]int{xyz[pt[0]], xyz[pt[1]], xyz[pt[2]]}
				ir := n - 1 - img[0]
				ic := img[1]
				b.perms[k][cellIndex(r, c)] = uint8(cellIndex(ir, ic))
			}
		}
	}
	return b
}

// State is a board position: bit i set means cell i holds a peg.
type State uint32

// Start returns the initial position: all pegs except the center hole.
func (b *Board) Start() State {
	full := State(1<<b.Cells) - 1
	return full &^ (1 << b.Empty)
}

// Pegs counts the pegs on the board.
func (s State) Pegs() int { return bits.OnesCount32(uint32(s)) }

// apply performs move m (no legality check).
func applyMove(s State, m [3]uint8) State {
	return s&^(1<<m[0])&^(1<<m[1]) | 1<<m[2]
}

// legal reports whether move m applies to s.
func legalMove(s State, m [3]uint8) bool {
	return s&(1<<m[0]) != 0 && s&(1<<m[1]) != 0 && s&(1<<m[2]) == 0
}

// permute maps s through symmetry k.
func (b *Board) permute(s State, k int) State {
	var out State
	p := b.perms[k]
	for s != 0 {
		i := bits.TrailingZeros32(uint32(s))
		s &= s - 1
		out |= 1 << p[i]
	}
	return out
}

// Canon returns the canonical representative of s's symmetry class: the
// minimum image over the 6 symmetries. The transposition table stores
// only canonical positions ("non-redundant extensions").
func (b *Board) Canon(s State) State {
	min := b.permute(s, 0)
	for k := 1; k < 6; k++ {
		if img := b.permute(s, k); img < min {
			min = img
		}
	}
	return min
}

// Ext is one non-redundant extension: a canonical successor with the
// number of distinct moves (from this position) reaching it.
type Ext struct {
	S    State
	Mult uint64
}

// Extensions appends the non-redundant canonical successors of s to dst
// and returns it. Moves whose canonical successors coincide (the position
// is symmetric) are merged with their multiplicity, so each successor is
// transmitted once — the paper's "(non-redundant) extensions" — while
// path counting stays exact.
func (b *Board) Extensions(s State, dst []Ext) []Ext {
	base := len(dst)
	for _, m := range b.moves {
		if !legalMove(s, m) {
			continue
		}
		c := b.Canon(applyMove(s, m))
		merged := false
		for i := base; i < len(dst); i++ {
			if dst[i].S == c {
				dst[i].Mult++
				merged = true
				break
			}
		}
		if !merged {
			dst = append(dst, Ext{S: c, Mult: 1})
		}
	}
	return dst
}

// SeqCounts is what a sequential solve reports besides the answer.
type SeqCounts struct {
	Positions  uint64 // distinct canonical positions expanded
	Extensions uint64 // successor messages generated (the paper's RPC count)
	Solutions  uint64 // move sequences ending with one peg
}

// SolveSeq runs the level-synchronous BFS sequentially and returns the
// solution count and work counters. The parallel implementations must
// produce the identical Solutions value.
func (b *Board) SolveSeq() SeqCounts {
	var cnt SeqCounts
	var exts []Ext
	frontier := map[State]uint64{b.Canon(b.Start()): 1}
	for len(frontier) > 0 {
		next := make(map[State]uint64)
		for s, ways := range frontier {
			cnt.Positions++
			if s.Pegs() == 1 {
				cnt.Solutions += ways
				continue
			}
			exts = b.Extensions(s, exts[:0])
			for _, e := range exts {
				cnt.Extensions++
				next[e.S] += ways * e.Mult
			}
		}
		frontier = next
	}
	return cnt
}
