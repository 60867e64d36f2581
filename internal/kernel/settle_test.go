package kernel

import (
	"fmt"
	"testing"

	"repro/internal/label"
	"repro/internal/radio"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/units"
)

// busyScenario assembles a kernel whose busy path exercises every
// settlement surface: an active constant tap (an energy-wrapped app), a
// proportional backward tap, periodic radio traffic (ramp → plateau →
// sleep cycles with fund billing), a thread that alternates compute and
// sleep, and a backlight toggle landing exactly on a batch boundary.
// It returns the kernel and the radio for post-run inspection.
func busyScenario(mode Mode) (*Kernel, *radio.Radio) {
	k := New(Config{Seed: 11, Mode: mode})
	r := radio.New(k.Eng, k.Graph, k.Root, k.KernelPriv(), radio.Config{Profile: k.Profile})
	k.AddDevice(r)

	app := k.CreateReserve(k.Root, "app", label.Public())
	tap, err := k.CreateTap(k.Root, "app-tap", k.KernelPriv(), k.Battery(), app, label.Public())
	if err != nil {
		panic(err)
	}
	if err := tap.SetRate(k.KernelPriv(), units.Milliwatts(79)); err != nil {
		panic(err)
	}
	back, err := k.CreateTap(k.Root, "app-back", k.KernelPriv(), app, k.Battery(), label.Public())
	if err != nil {
		panic(err)
	}
	if err := back.SetFrac(k.KernelPriv(), 20_000); err != nil {
		panic(err)
	}

	// Poll-ish radio traffic: an exchange every 13 s (idle timeout is
	// 20 s, so the radio cycles sleep → ramp → plateau → sleep).
	for at := units.Time(1500); at < 60*units.Second; at += 13 * units.Second {
		at := at
		k.Eng.At(at, func(e *sim.Engine) {
			r.Exchange(e.Now(), 300, 4096, app, k.KernelPriv(), nil)
		})
	}

	// A thread that computes for a while, then sleeps in long stretches.
	var next units.Time
	k.Spawn(k.Root, "worker", k.KernelPriv(), sched.RunnerFunc(func(now units.Time, th *sched.Thread) {
		if now < next {
			th.Sleep(next)
			return
		}
		next = now + 7*units.Second
	}), app)

	// Backlight flips exactly on a batch boundary while parked.
	k.Eng.At(20*units.Second, func(*sim.Engine) { k.SetBacklight(true) })
	k.Eng.At(31*units.Second, func(*sim.Engine) { k.SetBacklight(false) })
	return k, r
}

// modes lists the kernel modes, the fixed-tick oracle first.
var modes = []Mode{FixedTick, PerBatch, ClosedForm}

// busySnapshot captures every externally observable quantity.
func busySnapshot(k *Kernel, r *radio.Radio) string {
	lvl, _ := k.Battery().Level(k.KernelPriv())
	rs := r.Stats()
	return fmt.Sprintf("consumed=%v battery=%v busy=%d idle=%d util=%.6f radio{act=%d state=%v statE=%v dataE=%v activeT=%v} taps=%d",
		k.Consumed(), lvl, k.Sched.BusyTicks(), k.Sched.IdleTicks(), k.Sched.Utilization(),
		rs.Activations, r.State(), rs.StateEnergy, rs.DataEnergy, rs.ActiveTime,
		k.Graph.ActiveTapCount())
}

// TestBusySettlementModeEquivalence is the kernel-level three-way
// differential: the busy scenario must produce identical observable
// state under fixed-tick, per-batch next-event, and closed-form
// settlement — at every Run boundary, including short odd-length Runs
// whose entry instants are re-stepped.
func TestBusySettlementModeEquivalence(t *testing.T) {
	spans := []units.Time{
		3 * units.Second, 7*units.Second + 3, 10 * units.Second,
		til(21*units.Second, 20*units.Second+3), 25 * units.Second,
	}
	var ref []string
	for ci, mode := range modes {
		k, r := busyScenario(mode)
		var snaps []string
		for _, d := range spans {
			k.Run(d)
			snaps = append(snaps, busySnapshot(k, r))
		}
		if ci == 0 {
			ref = snaps
			continue
		}
		for i := range snaps {
			if snaps[i] != ref[i] {
				t.Errorf("%v diverges from fixed-tick after span %d:\n  fixed-tick: %s\n  %v: %s",
					mode, i, ref[i], mode, snaps[i])
			}
		}
	}
}

// til is a tiny helper returning b-a... spans are durations; this keeps
// the odd-length span readable.
func til(b, a units.Time) units.Time { return b - a }

// TestBusyTapFastPath is the busy-path regression: a device with an
// active constant tap and a sleeping thread must execute far fewer
// instants under closed-form settlement than under per-batch flows —
// PR 1 gave this device its idle fast path; settlement gives it the
// busy one.
func TestBusyTapFastPath(t *testing.T) {
	steps := func(mode Mode) uint64 {
		k := New(Config{Seed: 5, Mode: mode})
		app := k.CreateReserve(k.Root, "app", label.Public())
		tap, err := k.CreateTap(k.Root, "tap", k.KernelPriv(), k.Battery(), app, label.Public())
		if err != nil {
			t.Fatal(err)
		}
		if err := tap.SetRate(k.KernelPriv(), units.Milliwatts(79)); err != nil {
			t.Fatal(err)
		}
		k.Run(10 * units.Minute)
		return k.Eng.Steps()
	}
	per, closed := steps(PerBatch), steps(ClosedForm)
	if closed*20 >= per {
		t.Fatalf("closed-form executed %d instants vs %d per-batch — busy fast path not engaged (want ≥ 20x fewer)", closed, per)
	}
	// And the accounting must agree exactly.
	consumed := func(mode Mode) units.Energy {
		k := New(Config{Seed: 5, Mode: mode})
		app := k.CreateReserve(k.Root, "app", label.Public())
		tap, _ := k.CreateTap(k.Root, "tap", k.KernelPriv(), k.Battery(), app, label.Public())
		if err := tap.SetRate(k.KernelPriv(), units.Milliwatts(79)); err != nil {
			t.Fatal(err)
		}
		k.Run(10 * units.Minute)
		lvl, _ := app.Level(k.KernelPriv())
		return k.Consumed()*1_000_000 + lvl%1_000_000 // fold both into one comparand
	}
	if a, b := consumed(PerBatch), consumed(ClosedForm); a != b {
		t.Fatalf("accounting diverges: per-batch %d vs closed-form %d", a, b)
	}
}

// TestDyingDeviceSettlementEquivalence drives a tiny battery through
// taps, radio draw and baseline billing to exhaustion: the clamped
// partial-drain endgame takes the exact-replay path and must match the
// fixed-tick engine microjoule for microjoule.
func TestDyingDeviceSettlementEquivalence(t *testing.T) {
	run := func(mode Mode) string {
		k := New(Config{Seed: 3, Mode: mode,
			BatteryCapacity: 12 * units.Joule})
		r := radio.New(k.Eng, k.Graph, k.Root, k.KernelPriv(), radio.Config{Profile: k.Profile})
		k.AddDevice(r)
		app := k.CreateReserve(k.Root, "app", label.Public())
		tap, err := k.CreateTap(k.Root, "tap", k.KernelPriv(), k.Battery(), app, label.Public())
		if err != nil {
			t.Fatal(err)
		}
		if err := tap.SetRate(k.KernelPriv(), units.Milliwatts(200)); err != nil {
			t.Fatal(err)
		}
		k.Eng.At(2*units.Second, func(e *sim.Engine) {
			r.Exchange(e.Now(), 300, 2048, app, k.KernelPriv(), nil)
		})
		// 12 J at ≈0.9 W plus a 9.5 J activation: dead well inside 20 s.
		var snaps []string
		for i := 0; i < 10; i++ {
			k.Run(2 * units.Second)
			snaps = append(snaps, busySnapshot(k, r))
		}
		return fmt.Sprint(snaps)
	}
	fixed := run(FixedTick)
	closed := run(ClosedForm)
	if fixed != closed {
		t.Fatalf("dying device diverges:\nfixed-tick:  %s\nclosed-form: %s", fixed, closed)
	}
}
