package triangle

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// MoveCount reports the number of legal moves from s.
func (b *Board) MoveCount(s State) int {
	n := 0
	for _, m := range b.moves {
		if legalMove(s, m) {
			n++
		}
	}
	return n
}

func TestBoardGeometry(t *testing.T) {
	b := NewBoard(6)
	if b.Cells != 21 {
		t.Fatalf("cells = %d, want 21", b.Cells)
	}
	if b.Start().Pegs() != 20 {
		t.Fatalf("start pegs = %d, want 20", b.Start().Pegs())
	}
	// Known move count for side 5: each of the 3 directions contributes
	// rows of jumps; spot check against hand-count for side 3: exactly
	// 2 cells can jump along each edge direction, both ways = 6 triples.
	b3 := NewBoard(3)
	if len(b3.moves) != 6 {
		t.Fatalf("side-3 moves = %d, want 6", len(b3.moves))
	}
}

func TestPermutationsAreBijections(t *testing.T) {
	b := NewBoard(6)
	for k := 0; k < 6; k++ {
		seen := make([]bool, b.Cells)
		for i := 0; i < b.Cells; i++ {
			img := b.perms[k][i]
			if seen[img] {
				t.Fatalf("perm %d maps two cells to %d", k, img)
			}
			seen[img] = true
		}
	}
}

// TestSymmetryPreservesMoves: permuting a state must permute its move set
// (same number of legal moves).
func TestSymmetryPreservesMoves(t *testing.T) {
	b := NewBoard(6)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		s := State(rng.Uint32()) & (1<<21 - 1)
		n := b.MoveCount(s)
		for k := 0; k < 6; k++ {
			if got := b.MoveCount(b.permute(s, k)); got != n {
				t.Fatalf("state %x perm %d: moves %d != %d", s, k, got, n)
			}
		}
	}
}

// TestCanonIdempotentAndInvariant: canon(canon(s)) == canon(s), and all
// symmetric images share a canonical form.
func TestCanonIdempotentAndInvariant(t *testing.T) {
	b := NewBoard(6)
	f := func(raw uint32) bool {
		s := State(raw) & (1<<21 - 1)
		c := b.Canon(s)
		if b.Canon(c) != c {
			return false
		}
		for k := 0; k < 6; k++ {
			if b.Canon(b.permute(s, k)) != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestCanonPreservesPegCount: symmetry never changes the peg count.
func TestCanonPreservesPegCount(t *testing.T) {
	b := NewBoard(6)
	f := func(raw uint32) bool {
		s := State(raw) & (1<<21 - 1)
		return b.Canon(s).Pegs() == s.Pegs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestMovesDecrementPegs: every legal move removes exactly one peg.
func TestMovesDecrementPegs(t *testing.T) {
	b := NewBoard(6)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		s := State(rng.Uint32()) & (1<<21 - 1)
		for _, m := range b.moves {
			if legalMove(s, m) {
				if applyMove(s, m).Pegs() != s.Pegs()-1 {
					t.Fatalf("move %v on %x: pegs %d -> %d", m, s, s.Pegs(), applyMove(s, m).Pegs())
				}
			}
		}
	}
}

func TestSolveSeqSmallBoards(t *testing.T) {
	// Side 4 (10 cells): determinism and counter sanity. Solvability to
	// one peg depends on the starting hole, so check that at least one
	// starting hole is solvable, as for the classic 10-hole puzzle.
	b := NewBoard(4)
	c1 := b.SolveSeq()
	c2 := b.SolveSeq()
	if c1 != c2 {
		t.Fatalf("nondeterministic: %+v vs %+v", c1, c2)
	}
	// The side-4 center cell cannot be jumped into, so the default board
	// is immediately stuck: exactly one position, no extensions.
	if c1.Positions != 1 || c1.Extensions != 0 || c1.Solutions != 0 {
		t.Fatalf("side-4 center start should be stuck: %+v", c1)
	}
	anySolvable := false
	for hole := 0; hole < 10; hole++ {
		if NewBoardAt(4, hole).SolveSeq().Solutions > 0 {
			anySolvable = true
			break
		}
	}
	if !anySolvable {
		t.Fatal("no side-4 starting hole is solvable; move generation is wrong")
	}
}

func TestSolveSeqSide5(t *testing.T) {
	b := NewBoard(5)
	c := b.SolveSeq()
	if c.Solutions == 0 {
		t.Fatal("side-5 board has solutions; found none")
	}
	t.Logf("side-5: %+v", c)
}

// TestSolveSeqSide6Counters: the full experiment board. The paper reports
// 688,348 extension RPCs; our canonicalization details differ slightly,
// but the count must be in the same regime (hundreds of thousands).
func TestSolveSeqSide6Counters(t *testing.T) {
	if testing.Short() {
		t.Skip("side-6 solve in short mode")
	}
	b := NewBoard(6)
	c := b.SolveSeq()
	if c.Solutions == 0 {
		t.Fatal("side-6 board has solutions; found none")
	}
	if c.Extensions < 100_000 || c.Extensions > 3_000_000 {
		t.Fatalf("side-6 extensions = %d, expected same regime as the paper's 688,348", c.Extensions)
	}
	t.Logf("side-6: %+v", c)
}
