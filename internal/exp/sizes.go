package exp

import (
	"repro/internal/apps/sor"
	"repro/internal/apps/triangle"
	"repro/internal/apps/tsp"
	"repro/internal/apps/water"
)

// The four paper workloads' problem sizes and seeds, written once: the
// figures, Table 3, the application ablation, the observed runs behind
// `oamlab trace|metrics` and FuzzEquivalence's presets take their configs
// from these methods, so a trace shows the schedule a figure measures.
// Each returns the paper's size, or the quick one, with RunOptions set.

func (s Scale) triangle() triangle.Config {
	cfg := triangle.Config{Side: 6, Empty: -1, Seed: 101, RunOptions: s.Run}
	if s.Quick {
		cfg.Side = 5
	}
	return cfg
}

func (s Scale) tsp() tsp.Config {
	cfg := tsp.Config{Cities: 12, Seed: 102, RunOptions: s.Run}
	if s.Quick {
		cfg.Cities = 10
	}
	return cfg
}

func (s Scale) sor() sor.Config {
	cfg := sor.DefaultConfig()
	if s.Quick {
		cfg = sor.Config{Rows: 66, Cols: 16, Iters: 30, Eps: 1e-9, Seed: 11}
	}
	cfg.RunOptions = s.Run
	return cfg
}

func (s Scale) water() water.Config {
	cfg := water.DefaultConfig()
	cfg.Seed = 103
	if s.Quick {
		cfg.Mols = 64
	}
	cfg.RunOptions = s.Run
	return cfg
}
