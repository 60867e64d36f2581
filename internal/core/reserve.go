// Package core implements the Cinder paper's primary contribution: the
// reserve and tap kernel abstractions (§3.2–§3.4) and the resource
// consumption graph they form, including the global half-life decay that
// prevents hoarding (§5.2.2).
//
// A Reserve describes the right to use a quantity of energy. A Tap moves
// energy between two reserves at a rate — a fixed power for constant
// taps, or a fraction of the source's level per second for proportional
// taps. Reserves and taps are kernel objects (internal/kobj) protected by
// security labels (internal/label); every operation that observes or
// modifies a level performs the §3.5 access checks.
//
// All amounts are integer microjoules and all flows carry sub-microjoule
// remainders, so the package maintains exact conservation: at any instant
//
//	battery + Σ reserve levels + Σ consumed == initial battery capacity
//
// which the test suite verifies as a property.
package core

import (
	"errors"
	"fmt"

	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/units"
)

// Errors returned by reserve and tap operations.
var (
	// ErrInsufficient reports that a reserve cannot cover a requested
	// consumption or transfer.
	ErrInsufficient = errors.New("core: insufficient energy in reserve")
	// ErrAccess reports a failed label check (§3.5).
	ErrAccess = errors.New("core: label check failed")
	// ErrDead reports an operation on a deallocated reserve or tap.
	ErrDead = errors.New("core: object has been deallocated")
	// ErrHoarding reports a transfer rejected by the strict anti-hoarding
	// rule (§5.2.2): moving energy from a fast-draining reserve to a
	// slower-draining one requires permission over the source's backward
	// taps.
	ErrHoarding = errors.New("core: transfer would evade backward taps")
)

// insufficientErr is the ErrInsufficient instance returned by Consume
// and DebitSelf. Failing consumptions are an expected steady state (a
// dead battery is billed every batch until the device stops; throttled
// threads retry every quantum), so each Reserve embeds one instance and
// returns a pointer to it: the failure path performs no fmt work and no
// allocation at all. The returned error's message is therefore only
// valid until the reserve's next failing operation — callers that need
// to retain it (none of the simulation's steady-state callers do)
// should capture Error() immediately.
type insufficientErr struct {
	name       string
	have, need units.Energy
	debt       bool
}

func (e *insufficientErr) Error() string {
	if e.debt {
		return fmt.Sprintf("%v: %q does not allow debt", ErrInsufficient, e.name)
	}
	return fmt.Sprintf("%v: %q has %v, need %v", ErrInsufficient, e.name, e.have, e.need)
}

func (e *insufficientErr) Unwrap() error { return ErrInsufficient }

// Accounting is the per-reserve consumption record applications read to
// build energy-aware behaviour (§3.2 "reserves also provide accounting").
type Accounting struct {
	// Consumed is the total energy drawn from the reserve by
	// consumption (CPU billing, device billing), i.e. energy that has
	// left the system.
	Consumed units.Energy
	// In is the total energy that arrived via taps and transfers.
	In units.Energy
	// Out is the total energy that left via taps and transfers.
	Out units.Energy
	// Decayed is the total energy returned to the battery by the global
	// half-life decay.
	Decayed units.Energy
	// ConsumeFailures counts all-or-nothing consumptions rejected for
	// insufficient level, the signal the scheduler uses for throttling.
	ConsumeFailures int64
}

// Reserve is a right to use a quantity of energy (§3.2). Create reserves
// through Graph.NewReserve; the zero value is not usable.
type Reserve struct {
	kobj.Base
	graph *Graph
	name  string
	level units.Energy
	// allowDebt permits the level to go negative via DebitSelf, the
	// §5.5.2 mechanism for charging incoming packets after the fact.
	allowDebt bool
	// decayExempt marks reserves outside the global half-life (the
	// battery itself, and netd's pool, which "is not subject to the
	// system global half-life" §5.5.2).
	decayExempt bool
	dead        bool
	stats       Accounting
	// decayCarry holds fixed-point residue of the exponential decay so
	// long-run half-life is exact. Units: µJ·2⁻³⁰.
	decayCarry int64
	// Settlement scratch (settle.go): epoch marks and worst-case drain
	// sums, valid only for the graph's current settleEpoch.
	sensitiveMark uint64
	settleMark    uint64
	settleDrain   int64
	settleCarry   int64
	// biteMark flags a decayable reserve fed by telescoped constant taps
	// in the current settlement chunk; biteIn accumulates those taps'
	// credits through a folded bite (settle.go's foldBites).
	biteMark uint64
	biteIn   units.Energy
	// insufficient is the reusable ErrInsufficient instance returned by
	// failing Consume/DebitSelf calls (see insufficientErr).
	insufficient insufficientErr
}

// Name returns the reserve's diagnostic name.
func (r *Reserve) Name() string { return r.name }

// Level returns the current energy level after checking observe
// privileges.
func (r *Reserve) Level(p label.Priv) (units.Energy, error) {
	if r.dead {
		return 0, fmt.Errorf("%w: reserve %q", ErrDead, r.name)
	}
	if !p.CanObserve(r.Label()) {
		return 0, fmt.Errorf("%w: observe reserve %q", ErrAccess, r.name)
	}
	return r.level, nil
}

// Stats returns a copy of the accounting record after checking observe
// privileges.
func (r *Reserve) Stats(p label.Priv) (Accounting, error) {
	if r.dead {
		return Accounting{}, fmt.Errorf("%w: reserve %q", ErrDead, r.name)
	}
	if !p.CanObserve(r.Label()) {
		return Accounting{}, fmt.Errorf("%w: observe reserve %q", ErrAccess, r.name)
	}
	return r.stats, nil
}

// Consume atomically draws amount from the reserve, recording it as
// consumed (left the system). It fails without side effects if the level
// is insufficient — the scheduler relies on this to throttle threads —
// or if the privileges cannot use the reserve (§3.5: observe + modify).
func (r *Reserve) Consume(p label.Priv, amount units.Energy) error {
	if amount < 0 {
		panic("core: negative consumption")
	}
	if r.dead {
		return fmt.Errorf("%w: reserve %q", ErrDead, r.name)
	}
	if !p.CanUse(r.Label()) {
		return fmt.Errorf("%w: use reserve %q", ErrAccess, r.name)
	}
	if r.level < amount {
		r.stats.ConsumeFailures++
		r.insufficient = insufficientErr{name: r.name, have: r.level, need: amount}
		return &r.insufficient
	}
	r.level -= amount
	r.stats.Consumed += amount
	r.graph.consumed += amount
	return nil
}

// CanConsume reports whether a Consume of amount would succeed, without
// side effects (beyond the observe check).
func (r *Reserve) CanConsume(p label.Priv, amount units.Energy) bool {
	return !r.dead && p.CanUse(r.Label()) && r.level >= amount
}

// CanDebitSelf reports whether a DebitSelf of amount would succeed,
// without side effects. Closed-form device settlement uses it to decide
// whether a span of per-tick debits can telescope into one.
func (r *Reserve) CanDebitSelf(p label.Priv, amount units.Energy) bool {
	return !r.dead && p.CanUse(r.Label()) && (r.allowDebt || r.level >= amount)
}

// AllowDebt reports whether the reserve permits DebitSelf past zero.
func (r *Reserve) AllowDebt() bool { return r.allowDebt }

// DebitSelf draws amount even into debt (§5.5.2: "threads can debit
// their own reserves up to or into debt even if the cost can only be
// determined after-the-fact"). The reserve must have been created with
// debt allowed, and the caller must hold use privileges.
func (r *Reserve) DebitSelf(p label.Priv, amount units.Energy) error {
	if amount < 0 {
		panic("core: negative debit")
	}
	if r.dead {
		return fmt.Errorf("%w: reserve %q", ErrDead, r.name)
	}
	if !p.CanUse(r.Label()) {
		return fmt.Errorf("%w: use reserve %q", ErrAccess, r.name)
	}
	if !r.allowDebt && r.level < amount {
		r.insufficient = insufficientErr{name: r.name, debt: true}
		return &r.insufficient
	}
	r.level -= amount
	r.stats.Consumed += amount
	r.graph.consumed += amount
	return nil
}

// Empty reports whether the reserve has no energy available. The
// energy-aware scheduler runs a thread only when one of its reserves is
// non-empty (§3.2).
func (r *Reserve) Empty() bool { return r.dead || r.level <= 0 }

// Dead reports whether the reserve has been deallocated.
func (r *Reserve) Dead() bool { return r.dead }

// DecayExempt reports whether the reserve is excluded from the global
// half-life decay.
func (r *Reserve) DecayExempt() bool { return r.decayExempt }

// credit adds energy arriving from a tap or transfer.
func (r *Reserve) credit(amount units.Energy) {
	r.level += amount
	r.stats.In += amount
}

// debit removes energy leaving via a tap or transfer. The caller must
// have clamped amount to the available level.
func (r *Reserve) debit(amount units.Energy) {
	if amount > r.level {
		panic(fmt.Sprintf("core: debit %v exceeds level %v of %q", amount, r.level, r.name))
	}
	r.level -= amount
	r.stats.Out += amount
}

// String renders the reserve for diagnostics.
func (r *Reserve) String() string {
	return fmt.Sprintf("reserve(%q id=%d level=%v)", r.name, r.ObjectID(), r.level)
}
