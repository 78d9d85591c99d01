package exp

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/apps"
)

// Scale is what every application-running experiment receives: the
// problem size, plus how its cells execute. The zero value is the paper's
// full-size run on the sequential kernel with one core per node, cells
// fanned out across every CPU.
type Scale struct {
	// Quick shrinks the problem sizes and node counts so the whole suite
	// runs in seconds (for tests and default benchmarks).
	Quick bool
	// MaxP caps the largest machine size (0 = the scale's default).
	MaxP int
	// Run is handed to every application run an experiment makes.
	Run apps.RunOptions
	// Workers is the number of experiment cells run concurrently (0 = all
	// CPUs, 1 = sequential). Each cell owns a private sim.Engine (and thus
	// its own RNG), so cells are independent by construction; the harness
	// only parallelizes across cells, never within one, and results are
	// byte-identical at any width because cells write theirs by index.
	Workers int
}

func (s Scale) procs(def []int) []int {
	max := s.MaxP
	if max == 0 {
		if s.Quick {
			max = 16
		} else {
			max = def[len(def)-1]
		}
	}
	var out []int
	for _, p := range def {
		if p <= max {
			out = append(out, p)
		}
	}
	return out
}

// workers is the harness width actually used: Workers, shrunk so that
// concurrent cells × shard runners per cell never exceeds GOMAXPROCS.
// Without the cap, every cell would spin Run.Shards goroutines of its own
// and the host would thrash on oversubscription. Simulated cores cost no
// host CPUs, so Run.Cores does not enter.
func (s Scale) workers() int {
	procs := runtime.GOMAXPROCS(0)
	w := s.Workers
	if w < 1 {
		w = procs
	}
	// Shard runners beyond GOMAXPROCS add no host parallelism, so a cell
	// counts for at most that many and the budget is at least one cell.
	if sh := apps.ResolveShards(s.Run.Shards, procs); sh > 1 {
		if budget := procs / sh; budget < w {
			w = budget
		}
	}
	return w
}

// forEach runs fn(0) .. fn(n-1) across min(s.workers(), n) goroutines.
// fn must deposit its result at index i of a pre-sized slice so that
// merge order is the loop order, independent of goroutine scheduling. All
// cells run even after a failure; the returned error is the lowest-index
// one, again so the outcome does not depend on scheduling.
func (s Scale) forEach(n int, fn func(i int) error) error {
	w := s.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	var (
		next   int64 = -1
		wg     sync.WaitGroup
		mu     sync.Mutex
		errIdx = n
		first  error
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, first = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
