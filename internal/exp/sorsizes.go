package exp

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/apps/sor"
	"repro/internal/sim"
)

// SORSizeRow is one problem size of the SOR size-sensitivity experiment.
type SORSizeRow struct {
	Rows, Cols int
	ORPC       sim.Duration
	TRPC       sim.Duration
	AbsGap     sim.Duration // TRPC - ORPC
	RelGapPct  float64      // gap as % of TRPC runtime
}

// SORSizes reproduces the size-sensitivity claim of section 4.2.3: the
// ORPC/TRPC difference is "consistent across different problem sizes" in
// absolute terms — the per-message thread cost doesn't depend on the data
// — so at smaller sizes it forms a larger fraction of the runtime.
func SORSizes(s Scale) ([]SORSizeRow, error) {
	p := 32
	sizes := [][2]int{{122, 80}, {242, 80}, {482, 80}}
	if s.Quick {
		p = 8
		sizes = [][2]int{{34, 16}, {66, 16}, {130, 16}}
	}
	out := make([]SORSizeRow, len(sizes))
	err := s.forEach(len(sizes), func(i int) error {
		sz := sizes[i]
		cfg := sor.DefaultConfig()
		cfg.Rows, cfg.Cols = sz[0], sz[1]
		cfg.RunOptions = s.Run
		if s.Quick {
			cfg.Iters = 30
		}
		orpc, err := sor.Run(apps.ORPC, p, cfg)
		if err != nil {
			return err
		}
		trpc, err := sor.Run(apps.TRPC, p, cfg)
		if err != nil {
			return err
		}
		gap := trpc.Elapsed - orpc.Elapsed
		out[i] = SORSizeRow{
			Rows: sz[0], Cols: sz[1],
			ORPC: orpc.Elapsed, TRPC: trpc.Elapsed,
			AbsGap:    gap,
			RelGapPct: 100 * float64(gap) / float64(trpc.Elapsed),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SORSizesTable formats the size sensitivity experiment.
func SORSizesTable(s Scale) (*Table, error) {
	rows, err := SORSizes(s)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "SOR problem-size sensitivity (section 4.2.3)",
		Columns: []string{"Grid", "ORPC(ms)", "TRPC(ms)", "Abs gap(ms)", "Gap % of TRPC"},
		Notes: []string{
			"paper: absolute ORPC-TRPC difference constant across sizes;",
			"at smaller sizes it is a higher portion of the total runtime",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dx%d", r.Rows, r.Cols),
			fmt.Sprintf("%.2f", float64(r.ORPC)/1e6),
			fmt.Sprintf("%.2f", float64(r.TRPC)/1e6),
			fmt.Sprintf("%.2f", float64(r.AbsGap)/1e6),
			f1(r.RelGapPct),
		})
	}
	return t, nil
}
