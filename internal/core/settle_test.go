package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/units"
)

// The settlement differential harness: every test builds the same graph
// twice, drives the twins in lockstep — one batch by batch through Flow
// (the oracle), the other through SettleFlows — and asserts the complete
// observable state (levels, carries, per-tap and per-reserve stats,
// conservation) is byte-identical at every comparison point.

const settleDT = 10 * units.Millisecond

func newSettleGraph(battery units.Energy) (*Graph, *kobj.Container) {
	tbl := kobj.NewTable()
	root := kobj.NewContainer(tbl, nil, "root", label.Public())
	g := NewGraph(tbl, root, label.Public(), Config{BatteryCapacity: battery, DecayHalfLife: -1})
	return g, root
}

// graphState renders everything settlement may touch, including internal
// carries, so a single byte of divergence fails the comparison.
func graphState(g *Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "consumed=%d held=%d conserr=%d active=%d\n",
		g.consumed, g.TotalHeld(), g.ConservationError(), len(g.active))
	for _, r := range g.reserves {
		fmt.Fprintf(&b, "r %s level=%d in=%d out=%d cons=%d fails=%d decayed=%d dcarry=%d\n",
			r.name, r.level, r.stats.In, r.stats.Out, r.stats.Consumed, r.stats.ConsumeFailures,
			r.stats.Decayed, r.decayCarry)
	}
	for _, t := range g.taps {
		fmt.Fprintf(&b, "t %s carry=%d moved=%d starved=%d active=%v\n",
			t.name, t.carry, t.stats.Moved, t.stats.Starved, t.activeIdx >= 0)
	}
	return b.String()
}

// baselineBiller emulates the kernel's per-batch baseline draw so the
// interleave contract (extraBatteryDrain + interleave callback) is
// exercised the way the kernel uses it.
type baselineBiller struct {
	g     *Graph
	power units.Power
	carry int64
}

func (bb *baselineBiller) bill(batches int64) {
	for i := int64(0); i < batches; i++ {
		var e units.Energy
		e, bb.carry = bb.power.OverRem(settleDT, bb.carry)
		if e > 0 {
			_ = bb.g.Battery().Consume(label.Priv{}, e)
		}
	}
}

// twins drives the oracle and the settled subject in lockstep.
type twins struct {
	t            *testing.T
	oracle       *Graph
	subject      *Graph
	otaps, staps []*Tap
	obill, sbill *baselineBiller
	baseline     units.Power
}

// newTwins builds the same graph twice. build must be deterministic; it
// returns the taps the script will mutate, in a stable order.
func newTwins(t *testing.T, battery units.Energy, baseline units.Power,
	build func(g *Graph, root *kobj.Container) []*Tap) *twins {
	t.Helper()
	oracle, oroot := newSettleGraph(battery)
	subject, sroot := newSettleGraph(battery)
	tw := &twins{
		t: t, oracle: oracle, subject: subject,
		otaps: build(oracle, oroot), staps: build(subject, sroot),
		obill:    &baselineBiller{g: oracle, power: baseline},
		sbill:    &baselineBiller{g: subject, power: baseline},
		baseline: baseline,
	}
	if len(tw.otaps) != len(tw.staps) {
		t.Fatal("twin build diverged")
	}
	return tw
}

// step advances both twins by n batches: the oracle one Flow (plus one
// baseline batch) at a time, the subject through SettleFlows.
func (tw *twins) step(n int64) {
	for i := int64(0); i < n; i++ {
		tw.oracle.Flow(settleDT)
		tw.obill.bill(1)
	}
	tw.subject.SettleFlows(settleDT, n, tw.baseline, tw.sbill.bill, Bites{})
}

// mutate applies the same mutation to both twins.
func (tw *twins) mutate(f func(g *Graph, taps []*Tap) error) {
	tw.t.Helper()
	if err := f(tw.oracle, tw.otaps); err != nil {
		tw.t.Fatal(err)
	}
	if err := f(tw.subject, tw.staps); err != nil {
		tw.t.Fatal(err)
	}
}

// compare asserts byte-identical state and exact conservation.
func (tw *twins) compare(tag string) {
	tw.t.Helper()
	os, ss := graphState(tw.oracle), graphState(tw.subject)
	if os != ss {
		tw.t.Fatalf("%s: settlement diverged from per-batch oracle:\n--- oracle ---\n%s--- settled ---\n%s", tag, os, ss)
	}
	if tw.oracle.ConservationError() != 0 || tw.subject.ConservationError() != 0 {
		tw.t.Fatalf("%s: conservation violated (oracle %v, subject %v)",
			tag, tw.oracle.ConservationError(), tw.subject.ConservationError())
	}
}

func mustTap(t *testing.T, g *Graph, root *kobj.Container, name string, src, sink *Reserve) *Tap {
	t.Helper()
	tap, err := g.NewTap(root, name, label.Priv{}, src, sink, label.Public())
	if err != nil {
		t.Fatal(err)
	}
	return tap
}

func mustRate(t *testing.T, tap *Tap, rate units.Power) {
	t.Helper()
	if err := tap.SetRate(label.Priv{}, rate); err != nil {
		t.Fatal(err)
	}
}

func mustFrac(t *testing.T, tap *Tap, frac PPM) {
	t.Helper()
	if err := tap.SetFrac(label.Priv{}, frac); err != nil {
		t.Fatal(err)
	}
}

// TestSettleConstFarm: many constant taps with carry-odd rates over a
// long horizon — the pure telescoping path.
func TestSettleConstFarm(t *testing.T) {
	tw := newTwins(t, 100*units.Joule, units.Milliwatts(699),
		func(g *Graph, root *kobj.Container) []*Tap {
			var taps []*Tap
			for i, rate := range []units.Power{333, 79_000, 1, 137_000, 999} {
				r := g.NewReserve(root, fmt.Sprintf("r%d", i), label.Public(), ReserveOpts{})
				tap := mustTap(t, g, root, fmt.Sprintf("t%d", i), g.Battery(), r)
				mustRate(t, tap, rate)
				taps = append(taps, tap)
			}
			return taps
		})
	tw.step(1)
	tw.compare("after 1 batch")
	tw.step(999)
	tw.compare("after 1000 batches")
	tw.step(12345)
	tw.compare("after 13345 batches")
	if tw.subject.SettledBatches() == 0 {
		t.Fatal("subject never took the closed-form path")
	}
}

// TestSettleConstChain: battery→A→B→C constant chains, where a later
// tap's source is an earlier tap's sink within the same batch.
func TestSettleConstChain(t *testing.T) {
	tw := newTwins(t, 10*units.Joule, 0,
		func(g *Graph, root *kobj.Container) []*Tap {
			a := g.NewReserve(root, "a", label.Public(), ReserveOpts{})
			b := g.NewReserve(root, "b", label.Public(), ReserveOpts{})
			c := g.NewReserve(root, "c", label.Public(), ReserveOpts{})
			t1 := mustTap(t, g, root, "bat-a", g.Battery(), a)
			t2 := mustTap(t, g, root, "a-b", a, b)
			t3 := mustTap(t, g, root, "b-c", b, c)
			mustRate(t, t1, 10_000)
			mustRate(t, t2, 7_001)
			mustRate(t, t3, 2_999)
			return []*Tap{t1, t2, t3}
		})
	tw.step(997)
	tw.compare("after 997 batches")
	// Flip the middle tap's rate above the feed rate: b's horizon shrinks
	// and the chain must starve identically.
	tw.mutate(func(g *Graph, taps []*Tap) error {
		return taps[1].SetRate(label.Priv{}, units.Milliwatts(20))
	})
	tw.step(2000)
	tw.compare("after starvation regime")
}

// TestSettleFracChain is the frac-tap-chain property test: a
// proportional tap fed by a proportional tap (itself fed by a constant
// tap), plus a backward proportional tap to the battery, settles
// identically to per-batch flow at every mutation boundary.
func TestSettleFracChain(t *testing.T) {
	tw := newTwins(t, 20*units.Joule, units.Milliwatts(100),
		func(g *Graph, root *kobj.Container) []*Tap {
			a := g.NewReserve(root, "a", label.Public(), ReserveOpts{})
			b := g.NewReserve(root, "b", label.Public(), ReserveOpts{})
			c := g.NewReserve(root, "c", label.Public(), ReserveOpts{})
			feed := mustTap(t, g, root, "feed", g.Battery(), a)
			f1 := mustTap(t, g, root, "a-b", a, b)
			f2 := mustTap(t, g, root, "b-c", b, c)
			back := mustTap(t, g, root, "b-bat", b, g.Battery())
			mustRate(t, feed, units.Milliwatts(5))
			mustFrac(t, f1, 100_000)
			mustFrac(t, f2, 250_000)
			mustFrac(t, back, 50_000)
			return []*Tap{feed, f1, f2, back}
		})
	tw.step(100)
	tw.compare("frac chain after 100 batches")
	tw.mutate(func(g *Graph, taps []*Tap) error {
		return taps[1].SetFrac(label.Priv{}, 900_000)
	})
	tw.step(57)
	tw.compare("after frac mutation")
	tw.mutate(func(g *Graph, taps []*Tap) error {
		return taps[0].SetRate(label.Priv{}, units.Milliwatts(50))
	})
	tw.step(203)
	tw.compare("after feed mutation")
	// Zero the middle link: the chain below it drains out.
	tw.mutate(func(g *Graph, taps []*Tap) error {
		return taps[1].SetFrac(label.Priv{}, 0)
	})
	tw.step(500)
	tw.compare("after chain break")
}

// TestSettleDepletion drives a small battery to exhaustion through taps
// and interleaved baseline draw: the clamp/starvation sequence near zero
// must match the oracle batch for batch.
func TestSettleDepletion(t *testing.T) {
	tw := newTwins(t, 80*units.Millijoule, units.Milliwatts(699),
		func(g *Graph, root *kobj.Container) []*Tap {
			r := g.NewReserve(root, "sink", label.Public(), ReserveOpts{})
			tap := mustTap(t, g, root, "drain", g.Battery(), r)
			mustRate(t, tap, units.Milliwatts(300))
			fr := g.NewReserve(root, "fracsink", label.Public(), ReserveOpts{})
			ftap := mustTap(t, g, root, "fdrain", r, fr)
			mustFrac(t, ftap, 400_000)
			return []*Tap{tap, ftap}
		})
	// 80 mJ at ≈1 W drains within ≈80 ms; run far past it, comparing
	// every 10 batches through the clamp regime.
	for i := 0; i < 6; i++ {
		tw.step(10)
		tw.compare(fmt.Sprintf("depletion chunk %d", i))
	}
	tw.step(1000)
	tw.compare("long after exhaustion")
}

// TestHorizonMonotonic pins the depletion-horizon property the kernel's
// chunked settlement relies on: with no external mutation, settling j
// batches can shrink the horizon by at most j.
func TestHorizonMonotonic(t *testing.T) {
	g, root := newSettleGraph(units.Joule)
	r := g.NewReserve(root, "r", label.Public(), ReserveOpts{})
	tap := mustTap(t, g, root, "t", g.Battery(), r)
	mustRate(t, tap, units.Milliwatts(10))
	extra := units.Milliwatts(699)
	prev := g.HorizonBatches(settleDT, extra)
	if prev <= 0 {
		t.Fatalf("expected positive horizon, got %d", prev)
	}
	settled := int64(0)
	bill := &baselineBiller{g: g, power: extra}
	for g.HorizonBatches(settleDT, extra) > 0 {
		j := int64(7)
		g.SettleFlows(settleDT, j, extra, bill.bill, Bites{})
		settled += j
		h := g.HorizonBatches(settleDT, extra)
		// Monotone up to one batch of slack for the interleaved drain's
		// sub-µJ carry (see HorizonBatches).
		if h < prev-j-1 {
			t.Fatalf("horizon not monotone: %d batches in, horizon fell %d → %d (more than the %d settled)",
				settled, prev, h, j)
		}
		prev = h
		if settled > 1_000_000 {
			t.Fatal("horizon never reached zero on a draining battery")
		}
	}
	// Nothing may have overshot: every level non-negative.
	g.EachReserve(func(res *Reserve) {
		lvl, err := res.Level(label.Priv{})
		if err != nil {
			t.Fatal(err)
		}
		if lvl < 0 {
			t.Fatalf("reserve %s overshot to %v", res.Name(), lvl)
		}
	})
	if g.ConservationError() != 0 {
		t.Fatalf("conservation violated: %v", g.ConservationError())
	}
}

// TestHorizonOverflowGuard: several taps whose rates individually pass
// the per-tap overflow guard must not wrap the summed per-reserve drain
// — the horizon must degrade to zero (replay), never to unbounded.
func TestHorizonOverflowGuard(t *testing.T) {
	g, root := newSettleGraph(units.Kilojoule)
	near := units.Power(horizonCap/int64(settleDT) - 1)
	for i := 0; i < 5; i++ {
		r := g.NewReserve(root, fmt.Sprintf("r%d", i), label.Public(), ReserveOpts{})
		tap := mustTap(t, g, root, fmt.Sprintf("t%d", i), g.Battery(), r)
		mustRate(t, tap, near)
	}
	if h := g.HorizonBatches(settleDT, 0); h != 0 {
		t.Fatalf("horizon = %d with overflow-scale drains, want 0 (conservative replay)", h)
	}
	// Settlement must still be exact (everything clamps immediately).
	g.SettleFlows(settleDT, 3, 0, nil, Bites{})
	if g.ConservationError() != 0 {
		t.Fatalf("conservation violated: %v", g.ConservationError())
	}
}

// TestSettleFlowHookFallsBack: a flow hook (the mid-batch mutation test
// seam) must force settlement onto the per-batch path rather than
// silently skipping the hook.
func TestSettleFlowHookFallsBack(t *testing.T) {
	g, root := newSettleGraph(units.Joule)
	r := g.NewReserve(root, "r", label.Public(), ReserveOpts{})
	tap := mustTap(t, g, root, "t", g.Battery(), r)
	mustRate(t, tap, units.Milliwatts(1))
	visits := 0
	g.flowHook = func(*Tap) { visits++ }
	g.SettleFlows(settleDT, 25, 0, nil, Bites{})
	if visits != 25 {
		t.Fatalf("flow hook saw %d visits, want 25 (settlement must not bypass the seam)", visits)
	}
	if got := g.SettledBatches(); got != 0 {
		t.Fatalf("settled %d batches despite active flow hook", got)
	}
	if got := g.FlowWalks(); got != 25 {
		t.Fatalf("flow walks = %d, want 25", got)
	}
}

// hoarderShape describes one variant of the §5.2.1 hoarder graph (the
// adversarial scenario's installHoarder): a constant feed battery→hoard,
// a 1000 PPM backward tax hoard→battery and a decay-exempt stash.
type hoarderShape struct {
	feedRate units.Power  // zero selects the scenario's 250 mW
	taxFirst bool         // create the tax before the feed
	debt     units.Energy // > 0: hoard allows debt and starts this deep in it
	// extra adds taps after the feed and tax.
	extra func(t *testing.T, g *Graph, root *kobj.Container, hoard, stash *Reserve)
}

func (hs hoarderShape) build(t *testing.T) func(g *Graph, root *kobj.Container) []*Tap {
	return func(g *Graph, root *kobj.Container) []*Tap {
		g.halfLife = DefaultHalfLife // newSettleGraph disables decay
		hoard := g.NewReserve(root, "hoard", label.Public(), ReserveOpts{AllowDebt: hs.debt > 0})
		stash := g.NewReserve(root, "stash", label.Public(), ReserveOpts{DecayExempt: true})
		if hs.debt > 0 {
			if err := hoard.DebitSelf(label.Priv{}, hs.debt); err != nil {
				t.Fatal(err)
			}
		}
		feed := func() *Tap {
			tap := mustTap(t, g, root, "feed", g.Battery(), hoard)
			rate := hs.feedRate
			if rate == 0 {
				rate = units.Milliwatts(250)
			}
			mustRate(t, tap, rate)
			return tap
		}
		tax := func() *Tap {
			tap := mustTap(t, g, root, "tax", hoard, g.Battery())
			mustFrac(t, tap, 1000)
			return tap
		}
		var taps []*Tap
		if hs.taxFirst {
			taps = append(taps, tax(), feed())
		} else {
			taps = append(taps, feed(), tax())
		}
		if hs.extra != nil {
			hs.extra(t, g, root, hoard, stash)
		}
		return taps
	}
}

func reserveNamed(g *Graph, name string) *Reserve {
	for _, r := range g.reserves {
		if r.name == name {
			return r
		}
	}
	return nil
}

// takesBackwardTapLoop plans a chunk on g and reports whether its
// replay set has the shape settleChunk hands to settleBackwardTap.
func takesBackwardTapLoop(g *Graph, extra units.Power) bool {
	if g.planSettle(settleDT, extra) <= 0 || len(g.settleReplay) == 0 {
		return false
	}
	p, _ := g.backwardTap(settleDT, 1)
	return p != nil
}

// foldsBites reports whether g's next chunk would fold its bites in.
func foldsBites(g *Graph, extra units.Power) bool {
	if g.planSettle(settleDT, extra) <= 0 {
		return false
	}
	var p *Tap
	if len(g.settleReplay) > 0 {
		p, _ = g.backwardTap(settleDT, 1)
	}
	return g.planBites(p)
}

// runHoarder drives the twins the way the kernel meets a hoarder: chunks
// of 100 batches (one per 1 s decay instant), Graph.Decay(1 s) after
// each, and the hoarder's evasion TransferUpTo(hoard→stash) once a
// minute, comparing the twins after every chunk. It returns how many
// chunks planned onto the backward-tap loop.
func runHoarder(tw *twins, minutes int) (fast int) {
	tw.t.Helper()
	for c := 1; c <= minutes*60; c++ {
		if takesBackwardTapLoop(tw.subject, tw.baseline) {
			fast++
		}
		tw.step(100)
		tw.mutate(func(g *Graph, _ []*Tap) error {
			g.Decay(units.Second)
			if c%60 != 0 {
				return nil
			}
			hoard := reserveNamed(g, "hoard")
			_, err := g.TransferUpTo(label.Priv{}, hoard, reserveNamed(g, "stash"), units.ClampNonNegative(hoard.level))
			return err
		})
		tw.compare(fmt.Sprintf("chunk %d", c))
	}
	return fast
}

// TestSettleBackwardTap pins the backward-tap loop against the per-batch
// oracle over a simulated hour of the hoarder graph, and checks that
// every shape outside its conditions falls back to the per-tap replay
// with identical results.
func TestSettleBackwardTap(t *testing.T) {
	const battery = 20 * units.Kilojoule
	baseline := units.Milliwatts(699)
	tw := newTwins(t, battery, baseline, hoarderShape{}.build(t))
	if fast := runHoarder(tw, 60); fast != 3600 {
		t.Fatalf("backward-tap loop took %d of 3600 chunks, want all", fast)
	}
	if tw.staps[1].stats.Moved == 0 || reserveNamed(tw.subject, "stash").level == 0 {
		t.Fatal("hoarder never taxed or stashed: the test exercises nothing")
	}

	for _, tc := range []struct {
		name  string
		shape hoarderShape
	}{
		{"feed with carry", hoarderShape{feedRate: 250_001}},
		{"feed after tax", hoarderShape{taxFirst: true}},
		{"second proportional tap", hoarderShape{extra: func(t *testing.T, g *Graph, root *kobj.Container, hoard, stash *Reserve) {
			mustFrac(t, mustTap(t, g, root, "tax2", hoard, stash), 500)
		}}},
		{"constant drain", hoarderShape{extra: func(t *testing.T, g *Graph, root *kobj.Container, hoard, stash *Reserve) {
			mustRate(t, mustTap(t, g, root, "drain", hoard, stash), units.Milliwatts(10))
		}}},
		// The feed repays this debt exactly at a chunk boundary, where the
		// tax's carry is still negative from taxing a negative level.
		{"debt", hoarderShape{debt: 29750 * units.Millijoule}},
		{"proportional chain", hoarderShape{extra: func(t *testing.T, g *Graph, root *kobj.Container, hoard, _ *Reserve) {
			mid := g.NewReserve(root, "mid", label.Public(), ReserveOpts{})
			mustFrac(t, mustTap(t, g, root, "hoard-mid", hoard, mid), 2000)
			mustFrac(t, mustTap(t, g, root, "mid-bat", mid, g.Battery()), 5000)
		}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tw := newTwins(t, battery, baseline, tc.shape.build(t))
			if takesBackwardTapLoop(tw.subject, baseline) {
				t.Fatal("shape planned onto the backward-tap loop, want the per-tap replay")
			}
			fast := runHoarder(tw, 10)
			// Debt falls back only until the feed has repaid it.
			if tc.shape.debt > 0 && (fast == 0 || fast == 600) || tc.shape.debt == 0 && fast != 0 {
				t.Fatalf("%d of 600 chunks took the backward-tap loop", fast)
			}
		})
	}
}

// stepBites advances both twins by n batches with the bites of b: the
// oracle one Flow, one baseline batch and (at a bitten batch) one Decay
// at a time, the subject through SettleFlows.
func (tw *twins) stepBites(n int64, b Bites) {
	for j := int64(1); j <= n; j++ {
		tw.oracle.Flow(settleDT)
		tw.obill.bill(1)
		if b.Count > 0 && j >= b.First && (j-b.First)%b.Every == 0 && (j-b.First)/b.Every < b.Count {
			tw.oracle.Decay(b.DT)
		}
	}
	tw.subject.SettleFlows(settleDT, n, tw.baseline, tw.sbill.bill, b)
}

// TestSettleFoldBites pins bite folding against per-batch Flow + Decay:
// an untapped decayable reserve, one fed by a carry-odd constant tap and
// a hoarder fold their bites into the chunk; a tap draining a decayable
// reserve and a proportional tap on the battery end the chunk at each
// bite instead. A 2-hour walk in uneven windows compares state after
// every window.
func TestSettleFoldBites(t *testing.T) {
	const battery = 20 * units.Kilojoule
	for _, tc := range []struct {
		name     string
		baseline units.Power
		extra    func(t *testing.T, g *Graph, root *kobj.Container)
		fold     bool
	}{
		{"foldable", units.Milliwatts(699), nil, true},
		{"drained decayable", units.Milliwatts(699), func(t *testing.T, g *Graph, root *kobj.Container) {
			mustRate(t, mustTap(t, g, root, "drain", reserveNamed(g, "stash"), g.Battery()), units.Milliwatts(3))
		}, false},
		// Without an interleaved battery drain the horizon admits a
		// proportional tap on the battery, which alone is a backward-tap
		// shape; the bites credit what it reads. The hoarder's and the
		// fed reserve's feeds are retired so nothing else refuses.
		{"battery read by a proportional tap", 0, func(t *testing.T, g *Graph, root *kobj.Container) {
			for _, tp := range g.Taps() {
				if err := g.Table().Delete(tp.ObjectID()); err != nil {
					t.Fatal(err)
				}
			}
			sink := g.NewReserve(root, "sink", label.Public(), ReserveOpts{DecayExempt: true})
			mustFrac(t, mustTap(t, g, root, "bat-prop", g.Battery(), sink), 3)
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := tc.baseline
			tw := newTwins(t, battery, baseline, func(g *Graph, root *kobj.Container) []*Tap {
				g.halfLife = DefaultHalfLife
				stash := g.NewReserve(root, "stash", label.Public(), ReserveOpts{})
				fed := g.NewReserve(root, "fed", label.Public(), ReserveOpts{})
				hoard := g.NewReserve(root, "hoard", label.Public(), ReserveOpts{})
				for _, r := range []*Reserve{stash, hoard} {
					if err := g.Transfer(label.Priv{}, g.Battery(), r, 50*units.Joule); err != nil {
						t.Fatal(err)
					}
				}
				mustRate(t, mustTap(t, g, root, "feed-fed", g.Battery(), fed), units.Milliwatts(37)+3)
				mustRate(t, mustTap(t, g, root, "feed-hoard", g.Battery(), hoard), units.Milliwatts(250))
				mustFrac(t, mustTap(t, g, root, "tax", hoard, g.Battery()), 1000)
				if tc.extra != nil {
					tc.extra(t, g, root)
				}
				return nil
			})
			if got := foldsBites(tw.subject, baseline); got != tc.fold {
				t.Fatalf("bites fold = %v, want %v", got, tc.fold)
			}
			for w, done := int64(0), int64(0); done < 720_000; w++ {
				n := 1 + (w*7919)%4000
				b := Bites{First: 1 + (w*31)%100, Every: 100, DT: units.Second}
				if b.First <= n {
					b.Count = (n-b.First)/b.Every + 1
				}
				tw.stepBites(n, b)
				done += n
				tw.compare(fmt.Sprintf("window %d", w))
			}
			if reserveNamed(tw.subject, "stash").stats.Decayed == 0 || reserveNamed(tw.subject, "hoard").stats.Decayed == 0 {
				t.Fatal("stash or hoard reserve never decayed: the test exercises nothing")
			}
			if tc.fold && reserveNamed(tw.subject, "fed").stats.Decayed == 0 {
				t.Fatal("fed reserve never decayed: the telescoped-feed fold is not exercised")
			}
		})
	}
}
