package exp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

var quick = Scale{Quick: true, MaxP: 8}

// TestTable1Calibration pins the headline microbenchmark (Table 1) to the
// paper's measured values within tight bands.
func TestTable1Calibration(t *testing.T) {
	rows := Table1()
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.System] = r
	}
	within := func(got sim.Duration, lo, hi float64) bool {
		us := float64(got) / 1000
		return us >= lo && us <= hi
	}
	am := byName["AM"]
	if !within(am.NoThread, 11, 15) {
		t.Errorf("AM = %v, want ~13us", am.NoThread)
	}
	orpc := byName["ORPC"]
	if !within(orpc.NoThread, 12, 16) || !within(orpc.Busy, 12, 16) {
		t.Errorf("ORPC = %v/%v, want ~14us both", orpc.NoThread, orpc.Busy)
	}
	trpc := byName["TRPC"]
	if !within(trpc.NoThread, 18, 24) {
		t.Errorf("TRPC idle = %v, want ~21us", trpc.NoThread)
	}
	if !within(trpc.Busy, 68, 80) {
		t.Errorf("TRPC busy = %v, want ~74us", trpc.Busy)
	}
	// Orderings the paper emphasizes.
	if !(am.NoThread <= orpc.NoThread && orpc.NoThread < trpc.NoThread) {
		t.Error("expected AM <= ORPC < TRPC on idle server")
	}
	if trpc.Busy-orpc.Busy < sim.Micros(50) {
		t.Error("busy-server TRPC gap should be ~60us over ORPC")
	}
}

// TestBulkSweep checks the section 4.1.2 claims: a jump at the 16-byte
// boundary and a roughly constant absolute TRPC-ORPC gap.
func TestBulkSweep(t *testing.T) {
	rows := Bulk()
	var at16, at64 BulkRow
	for _, r := range rows {
		if r.Bytes == 16 {
			at16 = r
		}
		if r.Bytes == 64 {
			at64 = r
		}
	}
	if jump := at64.ORPC - at16.ORPC; jump < sim.Micros(35) || jump > sim.Micros(60) {
		t.Errorf("bulk-path jump = %v, want ~40us+", jump)
	}
	first, last := rows[0], rows[len(rows)-1]
	gapSmall := first.TRPC - first.ORPC
	gapLarge := last.TRPC - last.ORPC
	diff := gapLarge - gapSmall
	if diff < -sim.Micros(3) || diff > sim.Micros(3) {
		t.Errorf("TRPC-ORPC gap drifted: %v vs %v", gapSmall, gapLarge)
	}
	// Relative difference shrinks with size.
	relSmall := float64(first.TRPC) / float64(first.ORPC)
	relLarge := float64(last.TRPC) / float64(last.ORPC)
	if relLarge >= relSmall {
		t.Errorf("relative gap should shrink: %.3f -> %.3f", relSmall, relLarge)
	}
}

// TestAbortCostMatchesPaper pins the 7/60 abort costs.
func TestAbortCostMatchesPaper(t *testing.T) {
	live, busy := AbortCost()
	if live < sim.Micros(6) || live > sim.Micros(12) {
		t.Errorf("live-stack abort = %v, want ~7us", live)
	}
	if busy < sim.Micros(55) || busy > sim.Micros(68) {
		t.Errorf("switch abort = %v, want ~60us", busy)
	}
}

func TestFig1Quick(t *testing.T) {
	tab, rows, err := Fig1Triangle(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3*4 || len(rows) != len(tab.Rows) {
		t.Fatalf("rows = %d/%d", len(tab.Rows), len(rows))
	}
	var buf bytes.Buffer
	tab.Print(&buf)
	if !strings.Contains(buf.String(), "Figure 1") {
		t.Fatal("missing title")
	}
	// The figure panels render as SVG with a curve per system.
	rt, sp := FigPlots("Figure 1", rows)
	for _, p := range []string{rt.SVG(), sp.SVG()} {
		for _, want := range []string{"<svg", "AM", "ORPC", "TRPC", "polyline"} {
			if !strings.Contains(p, want) {
				t.Fatalf("svg missing %q", want)
			}
		}
	}
	if !strings.Contains(sp.SVG(), "stroke-dasharray=\"2,3\"") {
		t.Fatal("speedup panel missing the ideal line")
	}
}

func TestFig2AndTable2Quick(t *testing.T) {
	tab, rows, err := Fig2TSP(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(tab.Rows) != len(rows) {
		t.Fatal("row mismatch")
	}
	t2 := Table2(rows)
	if len(t2.Rows) != 4 { // slaves 1,2,4,8
		t.Fatalf("table2 rows = %d", len(t2.Rows))
	}
}

func TestFig3Quick(t *testing.T) {
	tab, _, err := Fig3SOR(quick)
	if err != nil {
		t.Fatal(err)
	}
	// AM must never be slower than TRPC at the same P (one less copy,
	// no thread management).
	times := map[string]map[string]string{}
	for _, r := range tab.Rows {
		if times[r[1]] == nil {
			times[r[1]] = map[string]string{}
		}
		times[r[1]][r[0]] = r[2]
	}
	for p, byName := range times {
		if byName["AM"] > byName["TRPC"] {
			t.Errorf("P=%s: AM (%s) slower than TRPC (%s)", p, byName["AM"], byName["TRPC"])
		}
	}
}

func TestFig4AndTable3Quick(t *testing.T) {
	tab, rows, err := Fig4Water(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5*4 {
		t.Fatalf("rows = %d, want 5 variants x 4 sizes", len(rows))
	}
	_ = tab
	t3, err := Table3(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range t3.Rows {
		if r[3] == "0.0" {
			t.Errorf("water success collapsed: %v", r)
		}
	}
}

func TestAblationAllStrategiesComplete(t *testing.T) {
	rows := Ablation()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.OAMs == 0 || r.Elapsed <= 0 {
			t.Errorf("%s: empty result %+v", r.Strategy, r)
		}
	}
	// The continuation strategy must actually adopt.
	for _, r := range rows {
		if r.Strategy == "continuation" && r.Adopted == 0 {
			t.Error("continuation strategy never adopted")
		}
		if r.Strategy == "nack" && r.Nacked == 0 {
			t.Error("nack strategy never nacked")
		}
	}
}

func TestSchedPolicyFrontWins(t *testing.T) {
	rows := SchedPolicy()
	if rows[0].Policy != "front-of-queue" || rows[1].Policy != "back-of-queue" {
		t.Fatal("unexpected row order")
	}
	if rows[0].Elapsed >= rows[1].Elapsed {
		t.Errorf("front (%v) not faster than back (%v)", rows[0].Elapsed, rows[1].Elapsed)
	}
}

func TestBudgetShape(t *testing.T) {
	rows := Budget()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	unlimited, tight := rows[0], rows[2]
	if unlimited.TooLong != 0 {
		t.Fatalf("unlimited budget aborted: %+v", unlimited)
	}
	if tight.TooLong == 0 {
		t.Fatalf("tight budget never aborted: %+v", tight)
	}
	if tight.ShortWorst >= unlimited.ShortWorst {
		t.Fatalf("budget did not improve worst-case latency: %v vs %v",
			tight.ShortWorst, unlimited.ShortWorst)
	}
}

func TestBufferingShape(t *testing.T) {
	rows := Buffering()
	var shallowSlow, deepSlow BufferRow
	for _, r := range rows {
		if r.QueueCap == 2 && r.PollEvery == sim.Micros(200) {
			shallowSlow = r
		}
		if r.QueueCap == 128 && r.PollEvery == sim.Micros(200) {
			deepSlow = r
		}
	}
	if shallowSlow.DrainSpins <= deepSlow.DrainSpins {
		t.Fatalf("shallow buffers should stall senders more: %d vs %d",
			shallowSlow.DrainSpins, deepSlow.DrainSpins)
	}
}

func TestInterruptsShape(t *testing.T) {
	rows := Interrupts()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	coarsePoll, intr := rows[0], rows[2]
	if intr.Interrupts == 0 {
		t.Fatal("interrupt mode took no interrupts")
	}
	if coarsePoll.Interrupts != 0 {
		t.Fatal("polling mode took interrupts")
	}
	// Interrupts bound latency far below the coarse polling quantum...
	if intr.ShortWorst >= coarsePoll.ShortWorst/4 {
		t.Fatalf("interrupt latency %v not clearly better than coarse polling %v",
			intr.ShortWorst, coarsePoll.ShortWorst)
	}
	// ...at the price of slower computation.
	if intr.WorkDone <= coarsePoll.WorkDone {
		t.Fatalf("interrupts should tax the computation: %v vs %v",
			intr.WorkDone, coarsePoll.WorkDone)
	}
}

func TestAppAblationQuick(t *testing.T) {
	rows, err := AppAblation(Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Elapsed <= 0 || r.SuccPct <= 0 {
			t.Fatalf("empty row %+v", r)
		}
	}
}

// TestSORSizesClaim: the absolute ORPC-TRPC gap stays in a narrow band
// across problem sizes while the relative gap grows at smaller sizes.
func TestSORSizesClaim(t *testing.T) {
	rows, err := SORSizes(Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	small, large := rows[0], rows[2]
	ratio := float64(small.AbsGap) / float64(large.AbsGap)
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("absolute gap not size-stable: %v vs %v", small.AbsGap, large.AbsGap)
	}
	if small.RelGapPct <= large.RelGapPct {
		t.Fatalf("relative gap should grow at smaller sizes: %.2f%% vs %.2f%%",
			small.RelGapPct, large.RelGapPct)
	}
}

func TestTablePrintAndCSV(t *testing.T) {
	tab := &Table{
		Title:   "T",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"n"},
	}
	var buf bytes.Buffer
	tab.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "note: n") {
		t.Fatalf("bad print:\n%s", out)
	}
	buf.Reset()
	tab.CSV(&buf)
	if buf.String() != "a,bb\n1,2\n333,4\n" {
		t.Fatalf("bad csv: %q", buf.String())
	}
}
