// Package sor implements the Successive Overrelaxation experiment of
// section 4.2.3: an iterative grid relaxation, row-partitioned, with
// boundary rows exchanged every iteration. The exchange is a remote
// procedure that stores the row into a one-deep buffer at the neighbor
// and blocks while the buffer is full; convergence is detected with the
// control network's split-phase global-OR, exactly as the paper does to
// factor out barrier cost. Each exchanged row is 80 doubles — the
// 640-byte bulk messages the paper reports.
package sor

import (
	"math"

	"repro/internal/apps"
	"repro/internal/sim"
)

// Compute-cost calibration. The paper's sequential C program runs the
// 482x80 grid for 100 iterations in 15.3 s; with 480x78 interior points
// that is ~4.08 us per point update.
var (
	// CostPoint is charged per grid-point update.
	CostPoint = sim.Micros(4.08)
	// CostCopyPerByte is charged when the RPC versions copy a received
	// boundary row from the call buffer into the application's arrays —
	// the copy the hand-coded AM version avoids by depositing data
	// directly (call-by-value RPC semantics force it).
	CostCopyPerByte = sim.Micros(0.04)
	// CostStore is charged by the store procedure itself.
	CostStore = sim.Micros(2)
)

// Config parameterizes a run. The paper's experiment is 482x80, 100
// iterations.
type Config struct {
	Rows, Cols int
	Iters      int     // iteration cap
	Eps        float64 // convergence threshold on the max update delta
	Seed       int64
	apps.RunOptions
}

// DefaultConfig returns the paper's problem size.
func DefaultConfig() Config {
	return Config{Rows: 482, Cols: 80, Iters: 100, Eps: 1e-9, Seed: 11}
}

// grid is a dense Rows x Cols array.
type grid struct {
	rows, cols int
	v          []float64
}

func newGrid(rows, cols int) *grid {
	return &grid{rows: rows, cols: cols, v: make([]float64, rows*cols)}
}

func (g *grid) at(r, c int) float64     { return g.v[r*g.cols+c] }
func (g *grid) set(r, c int, x float64) { g.v[r*g.cols+c] = x }
func (g *grid) row(r int) []float64     { return g.v[r*g.cols : (r+1)*g.cols] }

// initBoundary applies the fixed boundary condition: the global top row
// is held at 100, everything else starts at 0.
func initBoundary(g *grid) {
	for c := 0; c < g.cols; c++ {
		g.set(0, c, 100)
	}
}

// relaxRow computes one interior row of the next grid from cur's rows
// up/mid/down and returns the max update delta in that row.
func relaxRow(up, mid, down, next []float64) float64 {
	maxd := 0.0
	for c := 1; c < len(mid)-1; c++ {
		nv := 0.25 * (up[c] + down[c] + mid[c-1] + mid[c+1])
		if d := math.Abs(nv - mid[c]); d > maxd {
			maxd = d
		}
		next[c] = nv
	}
	// The column boundaries are fixed.
	next[0] = mid[0]
	next[len(mid)-1] = mid[len(mid)-1]
	return maxd
}

// checksum folds the interior values into a position-weighted sum, an
// order-independent fingerprint the variants must agree on bit for bit.
func checksumRows(base int, rows [][]float64) uint64 {
	var sum uint64
	for i, row := range rows {
		for c, v := range row {
			sum += math.Float64bits(v) * uint64((base+i)*1_000_003+c+1)
		}
	}
	return sum
}

// SeqResult reports a sequential solve.
type SeqResult struct {
	Iters    int
	Checksum uint64
	Time     sim.Duration
}

// SolveSeq runs the relaxation sequentially and returns the iteration
// count, the grid fingerprint, and the implied sequential time.
func SolveSeq(cfg Config) SeqResult {
	cur := newGrid(cfg.Rows, cfg.Cols)
	next := newGrid(cfg.Rows, cfg.Cols)
	initBoundary(cur)
	initBoundary(next)
	it := 0
	for ; it < cfg.Iters; it++ {
		maxd := 0.0
		for r := 1; r < cfg.Rows-1; r++ {
			d := relaxRow(cur.row(r-1), cur.row(r), cur.row(r+1), next.row(r))
			if d > maxd {
				maxd = d
			}
		}
		cur, next = next, cur
		if maxd <= cfg.Eps {
			it++
			break
		}
	}
	rows := make([][]float64, 0, cfg.Rows-2)
	for r := 1; r < cfg.Rows-1; r++ {
		rows = append(rows, cur.row(r))
	}
	points := (cfg.Rows - 2) * (cfg.Cols - 2)
	return SeqResult{
		Iters:    it,
		Checksum: checksumRows(1, rows),
		Time:     sim.Duration(it) * sim.Duration(points) * CostPoint,
	}
}
