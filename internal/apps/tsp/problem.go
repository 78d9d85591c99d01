// Package tsp implements the Traveling Salesman experiment of section
// 4.2.2: a master/slave branch-and-bound search. The master generates
// partial routes into a job queue; slaves fetch jobs with a synchronous
// RPC that blocks when the queue is locked or empty — the procedure whose
// optimistic success rate Table 2 reports — and expand them with the
// closest-city-next heuristic, pruning against a globally shared best
// tour length.
package tsp

import (
	"math"
	"math/rand"
	"sort"
)

// Problem is a TSP instance: a symmetric integer distance matrix plus
// per-city neighbor orderings for the closest-city-next heuristic.
type Problem struct {
	N    int
	Dist [][]int64
	// NearOrder[i] lists the other cities in increasing distance from i,
	// ties broken by index (determinism).
	NearOrder [][]uint8
}

// NewProblem generates an instance with n cities placed uniformly at
// random (seeded) on a 1000x1000 grid, with rounded Euclidean distances.
// The paper's experiment uses 12 cities.
func NewProblem(n int, seed int64) *Problem {
	if n < 3 || n > maxCities {
		panic("tsp: city count out of supported range [3,16]")
	}
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 1000
		ys[i] = rng.Float64() * 1000
	}
	p := &Problem{N: n}
	p.Dist = make([][]int64, n)
	for i := range p.Dist {
		p.Dist[i] = make([]int64, n)
		for j := 0; j < n; j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			p.Dist[i][j] = int64(math.Round(math.Sqrt(dx*dx + dy*dy)))
		}
	}
	p.NearOrder = make([][]uint8, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j != i {
				p.NearOrder[i] = append(p.NearOrder[i], uint8(j))
			}
		}
		order := p.NearOrder[i]
		sort.SliceStable(order, func(a, b int) bool {
			da, db := p.Dist[i][order[a]], p.Dist[i][order[b]]
			if da != db {
				return da < db
			}
			return order[a] < order[b]
		})
	}
	return p
}

// maxCities bounds an instance, so a search's state has a fixed size.
const maxCities = 16

// JobDepth is the partial-route length the master generates. With 12
// cities and depth 5 (start city plus four more), the master creates
// 11*10*9*8 = 7920 jobs, matching the paper.
const JobDepth = 5

// Jobs enumerates the partial routes in deterministic (lexicographic)
// order. Each job is a route of JobDepth cities starting at city 0; all of
// them are cut from one backing array.
func (p *Problem) Jobs() [][]uint8 {
	n := 1
	for i := 1; i < JobDepth; i++ {
		n *= max(p.N-i, 0)
	}
	jobs := make([][]uint8, 0, n)
	flat := make([]uint8, 0, n*JobDepth)
	route := make([]uint8, 1, JobDepth)
	route[0] = 0
	used := make([]bool, p.N)
	used[0] = true
	var rec func()
	rec = func() {
		if len(route) == JobDepth {
			flat = append(flat, route...)
			jobs = append(jobs, flat[len(flat)-JobDepth:len(flat):len(flat)])
			return
		}
		for c := 1; c < p.N; c++ {
			if !used[c] {
				used[c] = true
				route = append(route, uint8(c))
				rec()
				route = route[:len(route)-1]
				used[c] = false
			}
		}
	}
	rec()
	return jobs
}

// RouteLen sums the edge lengths along a (partial) route.
func (p *Problem) RouteLen(route []uint8) int64 {
	var sum int64
	for i := 1; i < len(route); i++ {
		sum += p.Dist[route[i-1]][route[i]]
	}
	return sum
}

// Expand runs the branch-and-bound DFS from a partial route, visiting
// cities in closest-city-next order and pruning paths that already reach
// best. It returns the best complete tour length found (or the incoming
// best) and the number of tree nodes visited. onVisit, if non-nil, is
// called for every block of visited nodes — the hook the parallel slaves
// use to charge compute time and poll the network. The search state is a
// fixed-size value on the caller's stack: onVisit yields, so slaves are
// inside Expand on one Problem together, and a job allocates nothing.
func (p *Problem) Expand(route []uint8, best int64, onVisit func(n int) int64) (int64, uint64) {
	x := expansion{p: p, best: best, onVisit: onVisit}
	x.n = copy(x.path[:], route)
	for _, c := range route {
		x.used[c] = true
	}
	x.rec(p.RouteLen(route))
	if onVisit != nil && x.pending > 0 {
		x.poll()
	}
	return x.best, x.visits
}

// expansion is the state of one Expand: the path so far and its cities.
type expansion struct {
	p       *Problem
	best    int64
	visits  uint64
	pending int
	onVisit func(n int) int64
	used    [maxCities]bool
	path    [maxCities]uint8
	n       int // cities on path
}

// poll reports the visits since the last report and takes the bound back.
func (x *expansion) poll() {
	if nb := x.onVisit(x.pending); nb < x.best {
		x.best = nb
	}
	x.pending = 0
}

func (x *expansion) rec(length int64) {
	p := x.p
	x.visits++
	x.pending++
	if x.onVisit != nil && x.pending >= 64 {
		x.poll()
	}
	if length >= x.best {
		return
	}
	last := x.path[x.n-1]
	if x.n == p.N {
		if total := length + p.Dist[last][0]; total < x.best {
			x.best = total
		}
		return
	}
	for _, c := range p.NearOrder[last] {
		if x.used[c] {
			continue
		}
		x.used[c] = true
		x.path[x.n] = c
		x.n++
		x.rec(length + p.Dist[last][c])
		x.n--
		x.used[c] = false
	}
}

// SeqCounts reports a sequential solve.
type SeqCounts struct {
	Jobs   uint64
	Visits uint64
	Best   int64
}

// SolveSeq runs the whole search sequentially: generate every job, then
// expand each in order, sharing one best bound. The parallel versions
// must find the same Best (branch and bound is insensitive to search
// order for the final optimum).
func (p *Problem) SolveSeq() SeqCounts {
	jobs := p.Jobs()
	best := int64(math.MaxInt64)
	var visits uint64
	for _, j := range jobs {
		var v uint64
		best, v = p.Expand(j, best, nil)
		visits += v
	}
	return SeqCounts{Jobs: uint64(len(jobs)), Visits: visits, Best: best}
}
