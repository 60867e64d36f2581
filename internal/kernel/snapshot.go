package kernel

import (
	"fmt"
	"sort"

	"repro/internal/label"
	"repro/internal/snap"
	"repro/internal/units"
)

// This file implements checkpoint/resume for the kernel: the snapshot
// orchestrates the kernel's own accounting scalars, the gate call
// counters, and the object table, graph, scheduler and engine sections.
// The engine section comes last on both paths so that Restore's
// structural overlays (which may brush component hooks) cannot perturb
// the task schedules the engine section restores.

// Snapshot serializes the kernel and everything it owns. Peripherals
// registered with AddDevice (radio, smdd) snapshot themselves — the
// fleet layer, which knows the device's composition, orchestrates them
// after the kernel section.
func (k *Kernel) Snapshot(w *snap.Writer) {
	w.Section("kernel")
	w.I64(k.baseCarry)
	w.Bool(k.backlight)
	w.U64(uint64(k.nextCat))
	w.I64(int64(k.lastSchedAt))
	w.I64(int64(k.baselinePending))
	w.I64(int64(k.tapsPending))
	w.I64(int64(k.devicesPending))
	names := make([]string, 0, len(k.gates))
	for name := range k.gates {
		names = append(names, name)
	}
	sort.Strings(names)
	w.U64(uint64(len(names)))
	for _, name := range names {
		w.String(name)
		w.I64(k.gates[name].calls)
	}
	k.Table.Snapshot(w)
	k.Graph.Snapshot(w)
	k.Sched.Snapshot(w)
	k.Eng.Snapshot(w)
	// The charger section rides after the engine: its Restore touches
	// only scalars, never task schedules. Presence is structural — a
	// rebuilt kernel attaches a charger iff the snapshotted one did,
	// because both run the same deterministic construction path.
	w.Bool(k.charger != nil)
	if k.charger != nil {
		k.charger.Snapshot(w)
	}
}

// Restore overlays a snapshot onto a freshly rebuilt kernel (same
// config, same construction path). Every structural mismatch — a gate
// the rebuild did not register, a divergent object census, a reserve or
// thread list drift — fails loudly through the component restores.
func (k *Kernel) Restore(r *snap.Reader) error {
	r.Section("kernel")
	baseCarry := r.I64()
	backlight := r.Bool()
	nextCat := r.U64()
	lastSchedAt := units.Time(r.I64())
	baselinePending := units.Time(r.I64())
	tapsPending := units.Time(r.I64())
	devicesPending := units.Time(r.I64())
	nGates := int(r.U64())
	if err := r.Err(); err != nil {
		return err
	}
	if nGates != len(k.gates) {
		return fmt.Errorf("kernel: restore: snapshot has %d gates, rebuilt kernel has %d", nGates, len(k.gates))
	}
	for i := 0; i < nGates; i++ {
		name := r.String()
		calls := r.I64()
		if err := r.Err(); err != nil {
			return err
		}
		g, ok := k.gates[name]
		if !ok {
			return fmt.Errorf("kernel: restore: snapshot gate %q not registered in rebuilt kernel", name)
		}
		g.calls = calls
	}
	if err := k.Table.Restore(r); err != nil {
		return err
	}
	if err := k.Graph.Restore(r); err != nil {
		return err
	}
	if err := k.Sched.Restore(r); err != nil {
		return err
	}
	if err := k.Eng.Restore(r); err != nil {
		return err
	}
	hasCharger := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if hasCharger != (k.charger != nil) {
		return fmt.Errorf("kernel: restore: snapshot charger presence %v, rebuilt kernel %v "+
			"(the scenario's construction path must attach the charger before restoring)",
			hasCharger, k.charger != nil)
	}
	if hasCharger {
		if err := k.charger.Restore(r); err != nil {
			return err
		}
	}
	k.baseCarry = baseCarry
	k.backlight = backlight
	k.nextCat = label.Category(nextCat)
	k.lastSchedAt = lastSchedAt
	k.baselinePending = baselinePending
	k.tapsPending = tapsPending
	k.devicesPending = devicesPending
	// Snapshots are taken between Runs, after settle(): every bite
	// through the snapshot instant is applied, by the decay task or by
	// settlement, so the decay cursor is the first whole second after it.
	k.decayPending = (k.Eng.Now()/units.Second + 1) * units.Second
	return nil
}

// ResumeRun continues a checkpointed simulation to the given absolute
// instant without the Run-boundary re-step (see sim.Engine.ResumeUntil),
// then settles lazily-deferred accounting exactly as Run does. A
// RunUntil(a) + Restore + ResumeRun(b) sequence executes the identical
// callback sequence a single Run to b would have.
func (k *Kernel) ResumeRun(until units.Time) {
	k.Eng.ResumeUntil(until)
	k.settle()
}
