package exp

import (
	"testing"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/apps/sor"
	"repro/internal/apps/triangle"
	"repro/internal/apps/tsp"
	"repro/internal/apps/water"
	"repro/internal/rpc"
)

// TestSizes checks the four workload configs where they are made: at the
// quick and the paper size, the run each config describes computes the
// sequential solver's answer, and it carries the Scale's RunOptions (the
// Observe hook fires once — a config that dropped them would run
// unobserved, on the wrong engine, and nothing downstream would notice).
// The paper sizes run on the smallest machine only.
func TestSizes(t *testing.T) {
	cases := []struct {
		name string
		run  func(s Scale, p int) (apps.Result, error)
		want func(s Scale) uint64
	}{
		{"triangle",
			func(s Scale, p int) (apps.Result, error) { return triangle.Run(apps.ORPC, p, s.triangle()) },
			func(s Scale) uint64 { cfg := s.triangle(); return cfg.BoardCounts().Solutions }},
		{"tsp", // p slaves and a master
			func(s Scale, p int) (apps.Result, error) { return tsp.Run(apps.ORPC, p, s.tsp()) },
			func(s Scale) uint64 {
				cfg := s.tsp()
				return uint64(tsp.NewProblem(cfg.Cities, cfg.Seed).SolveSeq().Best)
			}},
		{"sor",
			func(s Scale, p int) (apps.Result, error) { return sor.Run(apps.ORPC, p, s.sor()) },
			func(s Scale) uint64 { return sor.SolveSeq(s.sor()).Checksum }},
		{"water",
			func(s Scale, p int) (apps.Result, error) { return water.Run(apps.ORPC, p, true, s.water()) },
			func(s Scale) uint64 { return water.SolveSeq(s.water()).Checksum }},
	}
	for _, quick := range []bool{true, false} {
		machines := []int{1}
		if quick {
			machines = []int{1, 4}
		} else if testing.Short() {
			continue
		}
		for _, tc := range cases {
			for _, p := range machines {
				observed := 0
				s := Scale{Quick: quick, Run: apps.RunOptions{
					Observe: func(*am.Universe, *rpc.Runtime) { observed++ },
				}}
				res, err := tc.run(s, p)
				if err != nil {
					t.Fatalf("%s quick=%v p=%d: %v", tc.name, quick, p, err)
				}
				if want := tc.want(s); res.Answer != want {
					t.Errorf("%s quick=%v p=%d: answer %d, sequential solver says %d", tc.name, quick, p, res.Answer, want)
				}
				if observed != 1 {
					t.Errorf("%s quick=%v p=%d: Observe hook fired %d times, want 1", tc.name, quick, p, observed)
				}
			}
		}
	}
}
