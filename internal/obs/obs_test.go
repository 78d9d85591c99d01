package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/rpc"
	"repro/internal/sim"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry(3)
	c := r.NewCounter("x/events")
	c.Inc(0)
	c.Inc(2)
	c.Add(2, 4)
	if got := c.Value(2); got != 5 {
		t.Fatalf("Value(2) = %d, want 5", got)
	}
	if got := c.Total(); got != 6 {
		t.Fatalf("Total = %d, want 6", got)
	}

	g := r.NewGauge("x/depth")
	g.Set(1, 7)
	g.Set(1, 3)
	if got := g.Value(1); got != 3 {
		t.Fatalf("gauge Value = %d, want 3", got)
	}
	if got := g.Max(1); got != 7 {
		t.Fatalf("gauge Max = %d, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry(1)
	h := r.NewHistogram("x/lat", sim.Micros(1), sim.Micros(10))
	h.Observe(0, sim.Micros(0.5)) // bucket 0
	h.Observe(0, sim.Micros(1))   // bucket 0 (bounds are inclusive upper edges)
	h.Observe(0, sim.Micros(5))   // bucket 1
	h.Observe(0, sim.Micros(50))  // overflow bucket
	if got := h.Count(0); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
	want := []uint64{2, 1, 1}
	for b, w := range want {
		if h.counts[0][b] != w {
			t.Fatalf("bucket %d = %d, want %d", b, h.counts[0][b], w)
		}
	}
	if got, want := h.Sum(0), sim.Micros(56.5); got != want {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds did not panic")
		}
	}()
	NewRegistry(1).NewHistogram("bad", sim.Micros(5), sim.Micros(5))
}

func TestRegistryWriteDeterministic(t *testing.T) {
	mk := func() string {
		r := NewRegistry(2)
		b := r.NewCounter("b/second")
		a := r.NewCounter("a/first")
		g := r.NewGauge("m/depth")
		h := r.NewHistogram("z/lat", sim.Micros(2))
		a.Inc(1)
		b.Add(0, 3)
		g.Set(0, 4)
		g.Set(0, 1)
		h.Observe(1, sim.Micros(1))
		h.Observe(1, sim.Micros(9))
		var buf bytes.Buffer
		if err := r.Write(&buf); err != nil {
			t.Fatalf("Write: %v", err)
		}
		return buf.String()
	}
	s1, s2 := mk(), mk()
	if s1 != s2 {
		t.Fatalf("registry output not deterministic:\n%s\nvs\n%s", s1, s2)
	}
	// Instruments come out sorted by name regardless of registration order.
	ai := strings.Index(s1, "a/first")
	bi := strings.Index(s1, "b/second")
	if ai < 0 || bi < 0 || ai > bi {
		t.Fatalf("instruments not sorted by name:\n%s", s1)
	}
}

func TestNormalizeProcName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"idle/3", "idle"},
		{"reliable/retx/0", "reliable/retx"},
		{"main/12", "main"},
		{"idle", "idle"},
		{"7", "7"},
		{"a/b", "a/b"},
		{"/3", "/3"},
	}
	for _, c := range cases {
		if got := normalizeProcName(c.in); got != c.want {
			t.Errorf("normalizeProcName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestProfileTotalsAndHierarchy(t *testing.T) {
	p := NewProfile()
	p.Add("oam/GetJob/0", sim.Micros(30))
	p.Add("oam/GetJob/1", sim.Micros(10))
	p.Add("oam/Best", sim.Micros(20))
	p.Add("idle/0", sim.Micros(40))
	if got, want := p.Total(), sim.Micros(100); got != want {
		t.Fatalf("Total = %v, want %v", got, want)
	}
	rows := p.rows()
	flat := map[string]sim.Duration{}
	cum := map[string]sim.Duration{}
	for _, r := range rows {
		flat[r.name] = r.flat
		cum[r.name] = r.cum
	}
	if flat["oam/GetJob"] != sim.Micros(40) {
		t.Fatalf("flat[oam/GetJob] = %v, want 40us", flat["oam/GetJob"])
	}
	// "oam" never appears as a leaf but accumulates its children.
	if flat["oam"] != 0 || cum["oam"] != sim.Micros(60) {
		t.Fatalf("oam parent: flat %v cum %v, want 0 / 60us", flat["oam"], cum["oam"])
	}
	if cum["idle"] != sim.Micros(40) {
		t.Fatalf("cum[idle] = %v, want 40us", cum["idle"])
	}
}

func TestProfileWriteDeterministic(t *testing.T) {
	mk := func() string {
		p := NewProfile()
		p.Add("b/1", sim.Micros(5))
		p.Add("a/0", sim.Micros(5))
		p.Add("c", sim.Micros(90))
		var buf bytes.Buffer
		if err := p.Write(&buf, 0); err != nil {
			t.Fatalf("Write: %v", err)
		}
		return buf.String()
	}
	s1, s2 := mk(), mk()
	if s1 != s2 {
		t.Fatalf("profile output not deterministic:\n%s\nvs\n%s", s1, s2)
	}
	if !strings.Contains(s1, "virtual CPU profile: 100.000us total") {
		t.Fatalf("missing total header:\n%s", s1)
	}
	// Equal flat times break ties by name: a before b.
	ai := strings.Index(s1, "  a\n")
	bi := strings.Index(s1, "  b\n")
	if ai < 0 || bi < 0 || ai > bi {
		t.Fatalf("flat-tie ordering wrong:\n%s", s1)
	}
}

func TestPct(t *testing.T) {
	cases := []struct {
		part, total sim.Duration
		want        string
	}{
		{50, 100, "50.0%"},
		{1, 3, "33.3%"},
		{2, 3, "66.7%"},
		{100, 100, "100.0%"},
		{0, 100, "0.0%"},
		{5, 0, "0.0%"},
	}
	for _, c := range cases {
		if got := pct(c.part, c.total); got != c.want {
			t.Errorf("pct(%d, %d) = %q, want %q", c.part, c.total, got, c.want)
		}
	}
}

func TestFmtDur(t *testing.T) {
	cases := []struct {
		d    sim.Duration
		want string
	}{
		{sim.Micros(1), "1.000us"},
		{sim.Micros(1.5), "1.500us"},
		{0, "0.000us"},
		{-sim.Micros(2.25), "-2.250us"},
	}
	for _, c := range cases {
		if got := fmtDur(c.d); got != c.want {
			t.Errorf("fmtDur(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestTraceBuilderJSON(t *testing.T) {
	tb := &traceBuilder{}
	tb.procMeta(0, "node 0")
	tb.threadMeta(0, tidCPU, "cpu")
	tb.span(`handler "x"`, "handler", sim.Time(1500), sim.Micros(2), 0, tidHandler, `{"depth":1}`)
	tb.instant("abort: lock-busy", "abort", sim.Time(3000), 0, tidOAM, "")
	tb.asyncBegin("GetJob", "flight", sim.Time(100), 0, tidNet, 1, `{"src":0,"dst":1,"bytes":16}`)
	tb.asyncEnd("GetJob", "flight", sim.Time(2100), 0, tidNet, 1)
	tb.counter("ready_depth", sim.Time(500), 0, 3)

	var buf bytes.Buffer
	if err := tb.writeDoc(&buf); err != nil {
		t.Fatalf("writeDoc: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("got %d events, want 7", len(doc.TraceEvents))
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev["ph"].(string)]++
	}
	if phases["M"] != 2 || phases["X"] != 1 || phases["i"] != 1 ||
		phases["b"] != 1 || phases["e"] != 1 || phases["C"] != 1 {
		t.Fatalf("phase counts wrong: %v", phases)
	}
	// ts is fractional microseconds: 1500ns -> 1.500.
	if !strings.Contains(buf.String(), `"ts":1.500`) {
		t.Fatalf("span ts not rendered as fixed-point microseconds:\n%s", buf.String())
	}
	// The quoted handler name survives escaping.
	if !strings.Contains(buf.String(), `handler \"x\"`) {
		t.Fatalf("name escaping missing:\n%s", buf.String())
	}
}

func TestCollectorSinkGating(t *testing.T) {
	c := New(Options{Profile: true})
	if c.Profile() == nil {
		t.Fatal("Profile option did not create a profiler")
	}
	// Registry is built at Attach time (it needs the node count); the
	// trace builder is off entirely.
	if c.Registry() != nil || c.tb != nil {
		t.Fatal("unselected sinks should be nil")
	}
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err == nil {
		t.Fatal("WriteTrace without a trace sink should error")
	}
	if err := c.WriteMetrics(&buf); err == nil {
		t.Fatal("WriteMetrics without a metrics sink should error")
	}
	if err := c.WriteProfile(&buf, 10); err != nil {
		t.Fatalf("WriteProfile with a profile sink: %v", err)
	}
}

// TestOverlappingSpansPairByProc: two calls of one procedure on one node
// overlap and end first-in-first-out, as two client threads' calls do; so
// do two optimistic dispatches on two cores. Each end closes the span its
// own process opened, not the node's latest.
func TestOverlappingSpansPairByProc(t *testing.T) {
	eng := sim.New(1)
	defer eng.Shutdown()
	c := New(Options{Trace: true})
	c.Attach(am.NewUniverse(eng, 1, cm5.DefaultCostModel()), nil)
	a := eng.Spawn("a", func(*sim.Proc) {})
	b := eng.Spawn("b", func(*sim.Proc) {})
	for _, k := range []struct {
		layer      sim.Layer
		start, end sim.Kind
	}{
		{sim.LayerRPC, rpc.RecCallStart, rpc.RecCallEnd},
		{sim.LayerOAM, oam.RecAttempt, oam.RecCompleted},
	} {
		for _, r := range []struct {
			us   float64
			kind sim.Kind
			p    *sim.Proc
		}{{0, k.start, a}, {5, k.start, b}, {20, k.end, a}, {200, k.end, b}} {
			c.Observe(sim.Record{T: sim.Time(sim.Micros(r.us)), Layer: k.layer, Kind: r.kind, Proc: r.p, Name: "get"})
		}
	}
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Ph string
			Ts, Dur  float64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	spans := map[string][]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans[ev.Name] = append(spans[ev.Name], fmt.Sprintf("%g+%g", ev.Ts, ev.Dur))
		}
	}
	want := []string{"0+20", "5+195"}
	for _, name := range []string{"call get", "oam get"} {
		if got := spans[name]; !slices.Equal(got, want) {
			t.Errorf("%q spans %v, want %v", name, got, want)
		}
	}
}
