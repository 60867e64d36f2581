package core

import (
	"testing"

	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/units"
)

// allocGraph builds a graph with a constant and a proportional tap
// carrying rates, so Flow and SettleFlows exercise both the telescoped
// and the replayed settlement paths.
func allocGraph(tb testing.TB) *Graph {
	tb.Helper()
	tbl := kobj.NewTable()
	root := kobj.NewContainer(tbl, nil, "root", label.Public())
	g := NewGraph(tbl, root, label.Public(), Config{BatteryCapacity: 1000 * units.Kilojoule})
	app := g.NewReserve(root, "app", label.Public(), ReserveOpts{})
	pool := g.NewReserve(root, "pool", label.Public(), ReserveOpts{})
	p := label.NewPriv()
	ct, err := g.NewTap(root, "const", p, g.Battery(), app, label.Public())
	if err != nil {
		tb.Fatal(err)
	}
	if err := ct.SetRate(p, units.Milliwatts(250)); err != nil {
		tb.Fatal(err)
	}
	pt, err := g.NewTap(root, "prop", p, app, pool, label.Public())
	if err != nil {
		tb.Fatal(err)
	}
	if err := pt.SetFrac(p, 100_000); err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestFlowZeroAllocs guards the per-batch tap walk: a steady-state Flow
// call must not allocate (the snapshot buffer is reused).
func TestFlowZeroAllocs(t *testing.T) {
	g := allocGraph(t)
	dt := 10 * units.Millisecond
	g.Flow(dt) // warm the scratch buffer
	if n := testing.AllocsPerRun(200, func() { g.Flow(dt) }); n != 0 {
		t.Fatalf("Flow allocates %v times per batch, want 0", n)
	}
}

// TestSettleFlowsZeroAllocs guards closed-form settlement: planning and
// settling a chunk must not allocate once the partition buffers are
// warm.
func TestSettleFlowsZeroAllocs(t *testing.T) {
	g := allocGraph(t)
	dt := 10 * units.Millisecond
	g.SettleFlows(dt, 16, units.Milliwatts(700), nil, Bites{})
	if n := testing.AllocsPerRun(100, func() { g.SettleFlows(dt, 16, units.Milliwatts(700), nil, Bites{}) }); n != 0 {
		t.Fatalf("SettleFlows allocates %v times per call, want 0", n)
	}
}

// TestConsumeFailureZeroAllocs guards the insufficient-energy error
// path: failing consumptions are the steady state of a dead battery and
// of throttled threads, and must not allocate (each reserve embeds its
// reusable error instance).
func TestConsumeFailureZeroAllocs(t *testing.T) {
	tbl := kobj.NewTable()
	root := kobj.NewContainer(tbl, nil, "root", label.Public())
	g := NewGraph(tbl, root, label.Public(), Config{BatteryCapacity: units.Microjoule})
	p := label.NewPriv()
	if err := g.Battery().Consume(p, units.Joule); err == nil {
		t.Fatal("consume from near-empty battery succeeded")
	}
	if n := testing.AllocsPerRun(200, func() {
		_ = g.Battery().Consume(p, units.Joule)
	}); n != 0 {
		t.Fatalf("failing Consume allocates %v times per call, want 0", n)
	}
	r := g.NewReserve(root, "nodebt", label.Public(), ReserveOpts{})
	if n := testing.AllocsPerRun(200, func() {
		_ = r.DebitSelf(p, units.Joule)
	}); n != 0 {
		t.Fatalf("failing DebitSelf allocates %v times per call, want 0", n)
	}
}

// BenchmarkSteadyGraphFlow is a CI-guarded steady-state benchmark: it
// must report 0 B/op (the bench smoke greps for SteadyAlloc-guarded
// names and fails on any heap bytes).
func BenchmarkSteadyGraphFlow(b *testing.B) {
	g := allocGraph(b)
	dt := 10 * units.Millisecond
	g.Flow(dt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Flow(dt)
	}
}

// BenchmarkSteadySettleFlows: closed-form settlement of a 16-batch
// chunk; CI-guarded to 0 B/op.
func BenchmarkSteadySettleFlows(b *testing.B) {
	g := allocGraph(b)
	dt := 10 * units.Millisecond
	g.SettleFlows(dt, 16, units.Milliwatts(700), nil, Bites{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SettleFlows(dt, 16, units.Milliwatts(700), nil, Bites{})
	}
}

// BenchmarkSteadySettleBackwardTap: a 100-batch chunk of the hoarder
// graph (constant feed, backward proportional tax), which settles on
// the backward-tap loop; CI-guarded to 0 B/op.
func BenchmarkSteadySettleBackwardTap(b *testing.B) {
	tbl := kobj.NewTable()
	root := kobj.NewContainer(tbl, nil, "root", label.Public())
	g := NewGraph(tbl, root, label.Public(), Config{BatteryCapacity: 1000 * units.Kilojoule})
	hoard := g.NewReserve(root, "hoard", label.Public(), ReserveOpts{})
	p := label.NewPriv()
	feed, err := g.NewTap(root, "feed", p, g.Battery(), hoard, label.Public())
	if err != nil {
		b.Fatal(err)
	}
	if err := feed.SetRate(p, units.Milliwatts(250)); err != nil {
		b.Fatal(err)
	}
	tax, err := g.NewTap(root, "tax", p, hoard, g.Battery(), label.Public())
	if err != nil {
		b.Fatal(err)
	}
	if err := tax.SetFrac(p, 1000); err != nil {
		b.Fatal(err)
	}
	dt := 10 * units.Millisecond
	g.SettleFlows(dt, 100, units.Milliwatts(700), nil, Bites{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SettleFlows(dt, 100, units.Milliwatts(700), nil, Bites{})
	}
}

// BenchmarkSteadySettleFlowsDecay: a 1,000-batch chunk with ten 1 s
// bites folded in — an untapped decayable reserve, one fed by a constant
// tap and the hoarder's taxed reserve; CI-guarded to 0 B/op.
func BenchmarkSteadySettleFlowsDecay(b *testing.B) {
	tbl := kobj.NewTable()
	root := kobj.NewContainer(tbl, nil, "root", label.Public())
	g := NewGraph(tbl, root, label.Public(), Config{BatteryCapacity: 1000 * units.Kilojoule})
	p := label.NewPriv()
	stash := g.NewReserve(root, "stash", label.Public(), ReserveOpts{})
	fed := g.NewReserve(root, "fed", label.Public(), ReserveOpts{})
	hoard := g.NewReserve(root, "hoard", label.Public(), ReserveOpts{})
	if err := g.Transfer(p, g.Battery(), stash, 100*units.Kilojoule); err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		src, sink *Reserve
		rate      units.Power
		frac      PPM
	}{
		{"feed-fed", g.Battery(), fed, units.Milliwatts(37), 0},
		{"feed-hoard", g.Battery(), hoard, units.Milliwatts(250), 0},
		{"tax", hoard, g.Battery(), 0, 1000},
	} {
		t, err := g.NewTap(root, tc.name, p, tc.src, tc.sink, label.Public())
		if err != nil {
			b.Fatal(err)
		}
		if tc.frac > 0 {
			err = t.SetFrac(p, tc.frac)
		} else {
			err = t.SetRate(p, tc.rate)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	dt := 10 * units.Millisecond
	bites := Bites{First: 100, Every: 100, Count: 10, DT: units.Second}
	g.SettleFlows(dt, 1000, units.Milliwatts(700), nil, bites)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SettleFlows(dt, 1000, units.Milliwatts(700), nil, bites)
	}
}
