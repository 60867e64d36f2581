package kernel

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/label"
	"repro/internal/radio"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/units"
)

// decayScenario builds a kernel whose decayable reserves cover every
// bite-folding class and its refusals: an untapped stash, a reserve fed
// by a carry-odd constant tap, one a constant tap drains, and a hoarder
// (whole-µJ feed taxed back by a backward proportional tap). Events
// about 90 s apart transfer, retune rates and (withRadio) wake the
// radio, which bills the fed reserve; the battery is small enough to die
// mid-run. Every event appends the observable state to *log.
func decayScenario(settle SettleMode, withRadio bool, log *[]string) *Kernel {
	k := New(Config{Seed: 7, EngineMode: sim.ModeNextEvent, Settle: settle,
		BatteryCapacity: 2 * units.Kilojoule})
	priv := k.KernelPriv()
	var r *radio.Radio
	if withRadio {
		r = radio.New(k.Eng, k.Graph, k.Root, priv, radio.Config{Profile: k.Profile})
		k.AddDevice(r)
	}
	newRes := func(name string, fund units.Energy) *core.Reserve {
		res := k.CreateReserve(k.Root, name, label.Public())
		if err := k.Graph.Transfer(priv, k.Battery(), res, fund); err != nil {
			panic(err)
		}
		return res
	}
	newTap := func(name string, src, sink *core.Reserve, rate units.Power) *core.Tap {
		tp, err := k.CreateTap(k.Root, name, priv, src, sink, label.Public())
		if err != nil {
			panic(err)
		}
		if err := tp.SetRate(priv, rate); err != nil {
			panic(err)
		}
		return tp
	}
	stash := newRes("stash", 40*units.Joule)
	fed := newRes("fed", 0)
	drained := newRes("drained", 25*units.Joule)
	hoard := newRes("hoard", 5*units.Joule)
	feedFed := newTap("feed-fed", k.Battery(), fed, units.Milliwatts(37)+3)
	drain := newTap("drain", drained, k.Battery(), units.Milliwatts(13)+1)
	feedHoard := newTap("feed-hoard", k.Battery(), hoard, units.Milliwatts(250))
	tax, err := k.CreateTap(k.Root, "tax", priv, hoard, k.Battery(), label.Public())
	if err != nil {
		panic(err)
	}
	if err := tax.SetFrac(priv, 2_000); err != nil {
		panic(err)
	}
	watched := []*core.Reserve{k.Battery(), stash, fed, drained, hoard}
	taps := k.Graph.Taps()
	snapshot := func() string {
		var b strings.Builder
		fmt.Fprintf(&b, "t=%v consumed=%v", k.Now(), k.Consumed())
		for _, res := range watched {
			lvl, _ := res.Level(priv)
			st, _ := res.Stats(priv)
			fmt.Fprintf(&b, " %s{%v in=%v out=%v decayed=%v}", res.Name(), lvl, st.In, st.Out, st.Decayed)
		}
		for _, tp := range taps {
			st := tp.Stats()
			fmt.Fprintf(&b, " %s{carry=%d moved=%v}", tp.Name(), tp.Carry(), st.Moved)
		}
		return b.String()
	}
	// On every 61st second an event tops up the stash — so the instant
	// cannot take the fast boundary path and the bite due there is
	// handed back to the decay task — and a probe registered after the
	// kernel's tasks logs the state that bite leaves.
	k.Eng.Every("probe", 61*units.Second, func(*sim.Engine) { *log = append(*log, "probe "+snapshot()) })
	for at := 61 * units.Second; at < 50*units.Minute; at += 61 * units.Second {
		k.Eng.At(at, func(*sim.Engine) { _ = k.Graph.Transfer(priv, k.Battery(), stash, 10*units.Millijoule) })
	}
	for i, at := 0, 90*units.Second+7; at < 50*units.Minute; i, at = i+1, at+89*units.Second+11 {
		i := i
		k.Eng.At(at, func(e *sim.Engine) {
			*log = append(*log, snapshot())
			switch i % 5 {
			case 0:
				_ = k.Graph.Transfer(priv, k.Battery(), stash, units.Joule)
			case 1:
				_ = feedFed.SetRate(priv, units.Milliwatts(37)+units.Power(i))
			case 2:
				if r != nil {
					r.Exchange(e.Now(), 300, 2048, fed, priv, nil)
				}
			case 3:
				_ = feedHoard.SetRate(priv, units.Milliwatts(float64(250+10*(i%3))))
			case 4:
				// The drain runs every other cycle: a tapped-out decayable
				// reserve ends chunks at bites, an untapped one folds.
				_ = drain.SetRate(priv, units.Power(i%2)*(units.Milliwatts(13)+1))
			}
		})
	}
	return k
}

// TestLazyDecayEquivalence is the lazy-decay differential: settling the
// 1 s bites inside flow chunks must leave every reserve, stat and carry
// exactly where the per-batch run's decay task leaves them — at every
// event and probe, across Run boundaries at odd offsets, and through
// the battery's death — while the closed-form run stops executing an
// instant per second.
func TestLazyDecayEquivalence(t *testing.T) {
	run := func(settle SettleMode) ([]string, *Kernel) {
		var log []string
		k := decayScenario(settle, true, &log)
		for _, d := range []units.Time{7*units.Minute + 3, 13 * units.Minute, 31*units.Minute + 997} {
			k.Run(d)
			log = append(log, "run-end "+fmt.Sprint(k.Now(), k.Consumed()))
		}
		return log, k
	}
	ref, pk := run(SettlePerBatch)
	got, ck := run(SettleClosedForm)
	if len(ref) != len(got) {
		t.Fatalf("event counts differ: per-batch %d, closed-form %d", len(ref), len(got))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("closed form diverges at record %d:\n  per-batch:   %s\n  closed-form: %s", i, ref[i], got[i])
		}
	}
	if !ck.BatteryExhaustedFor(units.Second) {
		t.Fatal("battery survived; the dying endgame is not exercised")
	}
	// Per-batch settlement executes every 10 ms batch; the closed-form
	// run must not even execute the 1 s decay grid (≈3,100 instants).
	seconds := uint64(ck.Now() / units.Second)
	if steps := ck.Eng.Steps(); steps*4 > seconds {
		t.Fatalf("closed form executed %d instants over %d s (per-batch %d): decay instants did not collapse",
			steps, seconds, pk.Eng.Steps())
	}
}

// TestLazyDecayRestore: a checkpoint taken while the decay task is
// parked carries no cursor; Restore derives it as the first whole second
// after the snapshot instant. A restored kernel resumed to the horizon
// must log exactly what an uninterrupted run logs.
func TestLazyDecayRestore(t *testing.T) {
	const cut = 7*units.Minute + 500*units.Millisecond + 3
	const end = 40 * units.Minute
	var want []string
	decayScenario(SettleClosedForm, false, &want).Run(end)

	var got []string
	k := decayScenario(SettleClosedForm, false, &got)
	k.Run(cut)
	if k.taskDecay.NextDue() != sim.MaxTime {
		t.Fatal("decay task on its grid at the cut; the derived cursor is not exercised")
	}
	w := snap.NewWriter()
	k.Snapshot(w)
	blob, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var rebuilt []string
	k2 := decayScenario(SettleClosedForm, false, &rebuilt)
	r, err := snap.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := k2.Restore(r); err != nil {
		t.Fatal(err)
	}
	k2.ResumeRun(end)
	got = append(got, rebuilt...)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("restored run diverges:\n  want %v\n  got  %v", want, got)
	}
}

// peakDevice is a settleable device with a fixed peak draw that bills
// nothing; it lets WatchHorizon's device budget be checked directly.
type peakDevice struct {
	quiet bool
	peak  units.Power
}

func (d *peakDevice) DeviceTick(units.Time, units.Time)              {}
func (d *peakDevice) Quiescent() bool                                { return d.quiet }
func (d *peakDevice) SettleTicks(units.Time, units.Time, units.Time) {}
func (d *peakDevice) PeakDraw() units.Power                          { return d.peak }
func (d *peakDevice) SettleAccounts() []*core.Reserve                { return nil }

// TestWatchHorizonBudget pins the battery watch's deferral budget: the
// baseline, every constant tap out of the battery (plus 1 µJ of carry
// each) and every active device's peak draw (plus 1 µJ each) shorten
// the horizon exactly; a proportional tap on the battery and a runnable
// thread refuse it.
func TestWatchHorizonBudget(t *testing.T) {
	k := New(Config{Seed: 1, EngineMode: sim.ModeNextEvent, BatteryCapacity: 100 * units.Joule})
	dev := &peakDevice{quiet: true, peak: units.Milliwatts(400)}
	k.AddDevice(dev)
	priv := k.KernelPriv()
	var watch *sim.Task
	watch = k.Eng.Every("watch", units.Second, func(*sim.Engine) { watch.Park() })
	want := func(drain units.Power, slack units.Energy) units.Time {
		lvl, _ := k.Battery().Level(priv)
		p := k.baselinePower()
		margin := lvl - 2*p.Over(k.tapBatch) - slack
		h := k.Now() + units.Time(int64(margin)*1000/int64(drain)) - units.Second - k.tapBatch
		if w := k.Eng.EarliestWork(watch); w < h {
			h = w
		}
		return h
	}
	check := func(tag string, drain units.Power, slack units.Energy) {
		t.Helper()
		k.Run(units.Second) // let the activity-resumed kernel tasks park again
		got, w := k.WatchHorizon(watch), want(drain, slack)
		if got != w || got <= k.Now() || got >= k.Eng.EarliestWork(watch) {
			t.Fatalf("%s: horizon %v, want %v (now %v, pending work at %v)",
				tag, got, w, k.Now(), k.Eng.EarliestWork(watch))
		}
	}
	base := k.baselinePower()
	check("baseline only", base, 0)

	sink := k.CreateReserveOpts(k.Root, "sink", label.Public(), core.ReserveOpts{DecayExempt: true})
	out, err := k.CreateTap(k.Root, "out", priv, k.Battery(), sink, label.Public())
	if err != nil {
		t.Fatal(err)
	}
	if err := out.SetRate(priv, units.Milliwatts(250)); err != nil {
		t.Fatal(err)
	}
	in, err := k.CreateTap(k.Root, "in", priv, sink, k.Battery(), label.Public())
	if err != nil {
		t.Fatal(err)
	}
	if err := in.SetRate(priv, units.Milliwatts(900)); err != nil {
		t.Fatal(err)
	}
	check("constant tap out of the battery", base+units.Milliwatts(250), 1)

	dev.quiet = false
	check("active device", base+units.Milliwatts(650), 2)

	if err := in.SetFrac(priv, 5_000); err != nil {
		t.Fatal(err)
	}
	check("proportional tap into the battery", base+units.Milliwatts(650), 2)
	if err := out.SetFrac(priv, 5_000); err != nil {
		t.Fatal(err)
	}
	k.Run(units.Second)
	if h := k.WatchHorizon(watch); h != 0 {
		t.Fatalf("proportional tap on the battery: horizon %v, want 0", h)
	}
	if err := out.SetRate(priv, 0); err != nil {
		t.Fatal(err)
	}
	k.Spawn(k.Root, "spin", priv, sched.RunnerFunc(func(units.Time, *sched.Thread) {}), k.Battery())
	k.Run(units.Second)
	if h := k.WatchHorizon(watch); h != 0 {
		t.Fatalf("runnable thread: horizon %v, want 0", h)
	}
}

// TestDecayPinnedWhileDeviceActive: a device leaving quiescence puts the
// parked decay task back on its 1 s grid (settlement would otherwise
// have to order the bites against device billing instant by instant),
// and the task parks again once the device sleeps.
func TestDecayPinnedWhileDeviceActive(t *testing.T) {
	k := New(Config{Seed: 3, EngineMode: sim.ModeNextEvent})
	priv := k.KernelPriv()
	r := radio.New(k.Eng, k.Graph, k.Root, priv, radio.Config{Profile: k.Profile})
	k.AddDevice(r)
	app := k.CreateReserve(k.Root, "app", label.Public())
	if err := k.Graph.Transfer(priv, k.Battery(), app, 50*units.Joule); err != nil {
		t.Fatal(err)
	}
	parked := func() bool { return k.taskDecay.NextDue() == sim.MaxTime }
	k.Run(10 * units.Second)
	if !parked() {
		t.Fatal("decay task on its grid while every device sleeps")
	}
	k.Eng.At(k.Now()+500, func(e *sim.Engine) { r.Exchange(e.Now(), 300, 2048, app, priv, nil) })
	k.Run(2 * units.Second)
	if parked() || r.Quiescent() {
		t.Fatalf("decay parked %v, radio quiescent %v: want the task on its grid while the radio is awake", parked(), r.Quiescent())
	}
	k.Run(units.Minute)
	if !parked() || !r.Quiescent() {
		t.Fatalf("decay parked %v, radio quiescent %v: want the task parked once the radio sleeps", parked(), r.Quiescent())
	}
}
