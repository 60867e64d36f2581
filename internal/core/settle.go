package core

import (
	"math"

	"repro/internal/units"
)

// This file implements closed-form tap settlement: advancing the graph
// through many Flow batches in far less than one walk per batch while
// remaining byte-identical — levels, carries, stats, starvation — to the
// per-batch sequence. The kernel uses it to park its flow task between
// engine instants and catch up lazily.
//
// The key observations:
//
//   - A constant tap's per-batch transfer is independent of any reserve
//     level (absent starvation): the carry arithmetic telescopes, so n
//     batches collapse into one exact debit/credit.
//   - A proportional tap reads its *source* level every batch, so the
//     source's whole per-batch trajectory matters. Such "sensitive"
//     reserves — and every tap touching them — must be replayed batch by
//     batch. The replay still runs in creation order, so it is exact; it
//     merely skips the per-batch engine overhead.
//   - Starvation makes constant taps level-dependent too. The per-reserve
//     depletion horizon bounds how many batches can pass before any
//     source could fail to cover its worst-case outflow (ignoring all
//     inflows); within that horizon, no tap clamps and order between
//     telescoped and replayed taps is irrelevant.
//
// The topological pass is the sensitive-set computation: frac-tap chains
// (a proportional tap whose source is itself fed by a proportional tap)
// resolve naturally, because every link of the chain marks its source
// sensitive and is itself replayed in sequence order.

// horizonCap bounds the returned horizon so that per-tap totals
// (rate × dt × k + carry) can never overflow int64.
const horizonCap = math.MaxInt64 / 4

// HorizonBatches returns how many consecutive Flow(dt) batches are
// provably settleable in closed form from the graph's current state: the
// depletion horizon. Within the horizon no reserve can hit zero and no
// tap's draw can saturate (clamp to a dry source), even assuming every
// inflow stops. extraBatteryDrain is additional per-batch draw the
// caller will interleave with the batches (the kernel's baseline
// billing), charged against the battery's horizon.
//
// A zero horizon means the next batch must be replayed exactly (a source
// is near-dry, a proportional tap drains the battery while the caller
// interleaves its own battery draw, or the batch interval is too coarse
// for the no-clamp argument). The horizon is monotone: after settling j
// batches with no external mutation, the new horizon is at least the
// old one minus j — minus at most one further batch of slack for the
// sub-µJ carry drift of the caller's interleaved drain.
func (g *Graph) HorizonBatches(dt units.Time, extraBatteryDrain units.Power) int64 {
	return g.planSettle(dt, extraBatteryDrain)
}

// FlowWalks returns the number of batches the graph executed as
// per-batch tap walks: full Flow calls (the kernel's flow task, or
// settlement's outside-horizon fallback) plus batches whose sensitive
// subset was replayed in sequence order inside a settled chunk. A
// change that flips taps from telescoped to replayed — a new
// proportional tap marking a shared reserve sensitive — shows up here.
func (g *Graph) FlowWalks() int64 { return g.flowWalks }

// SettledBatches returns the number of batches advanced by closed-form
// settlement chunks. A batch settled in a chunk that also replayed
// sensitive taps counts in both SettledBatches and FlowWalks.
func (g *Graph) SettledBatches() int64 { return g.settledBatches }

// ReserveTapped reports whether any active tap has r as an endpoint.
// The kernel uses it to refuse closed-form device settlement when a
// device's private billing reserve participates in flows (settlement
// reorders device billing against tap batches, which is only exact when
// the two touch disjoint reserves apart from the clamp-guarded battery).
func (g *Graph) ReserveTapped(r *Reserve) bool {
	for _, t := range g.active {
		if t.src == r || t.sink == r {
			return true
		}
	}
	return false
}

// ReserveDrainedByTap reports whether any active tap has r as its
// source. A tap's draw clamps to (and a proportional tap reads) its
// source level, so reordering other debits against flows is only exact
// for reserves no tap drains; taps merely feeding r credit
// level-independent amounts, which commute with debt-allowed debits
// (the SettleSafe argument in internal/msm).
func (g *Graph) ReserveDrainedByTap(r *Reserve) bool {
	for _, t := range g.active {
		if t.src == r {
			return true
		}
	}
	return false
}

// TapsFrom appends every active tap whose source is r to dst (reusing
// its capacity) and returns the extended slice, in creation order. The
// kernel's battery watch horizon budgets the battery's outflow with it.
func (g *Graph) TapsFrom(r *Reserve, dst []*Tap) []*Tap {
	for _, t := range g.active {
		if t.src == r {
			dst = append(dst, t)
		}
	}
	return dst
}

// TapsInto appends every active tap whose sink is r to dst (reusing its
// capacity) and returns the extended slice, in deterministic creation
// order. Closed-form sweep settlement (netd's pool-crossing horizon)
// uses it to enumerate a waiter's inflow taps; the sums it computes are
// order-independent, but determinism keeps replay byte-stable anyway.
func (g *Graph) TapsInto(r *Reserve, dst []*Tap) []*Tap {
	for _, t := range g.active {
		if t.sink == r {
			dst = append(dst, t)
		}
	}
	return dst
}

// Bites schedules global half-life bites inside a SettleFlows call:
// Count bites of Decay(DT), the first after batch First (1-based), then
// one every Every batches. A bite follows its batch's flows and the
// caller's interleaved accounting for that batch, the order of the
// kernel's flow, baseline and decay tasks at a shared instant.
type Bites struct {
	First, Every, Count int64
	DT                  units.Time
}

// SettleFlows advances the graph through n consecutive Flow(dt) batches,
// each bitten batch of b followed by Decay(b.DT), byte-identical to that
// per-batch sequence with no interleaved graph mutation. Batches inside
// the depletion horizon settle in closed form (telescoped constant taps,
// sequence-ordered replay of sensitive taps); batches outside it fall
// back to exact per-batch walks. After each settled chunk of k batches,
// interleave(k) — if non-nil — is invoked so the caller can apply its
// own per-batch accounting (baseline billing) at matching granularity;
// extraBatteryDrain must bound that accounting's per-batch battery draw
// so the horizon covers it. A chunk folds its bites in when no bite can
// observe the chunk's own flow order (planBites); otherwise the chunk
// ends at the next bite, which runs after the interleave.
func (g *Graph) SettleFlows(dt units.Time, n int64, extraBatteryDrain units.Power, interleave func(batches int64), b Bites) {
	for n > 0 {
		k := g.settleChunk(dt, n, extraBatteryDrain, &b)
		if k == 0 {
			g.Flow(dt)
			k = 1
		}
		if interleave != nil {
			interleave(k)
		}
		if b.Count > 0 && b.First == k {
			g.Decay(b.DT)
			b.Count--
			b.First += b.Every
		}
		b.First -= k
		n -= k
	}
}

// planSettle partitions the active set for one settlement chunk and
// returns the depletion horizon. It fills g.settleTelescope (constant
// taps whose endpoints are level-trajectory-independent), g.settleReplay
// (proportional taps plus any tap touching a sensitive reserve, in
// creation order) and g.settleSrcs (reserves with per-batch outflow,
// carrying worst-case drain sums).
func (g *Graph) planSettle(dt units.Time, extra units.Power) int64 {
	if dt <= 0 {
		return 0
	}
	if g.flowHook != nil {
		return 0
	}
	g.settleEpoch++
	epoch := g.settleEpoch
	hasProp := false
	for _, t := range g.active {
		if t.kind == TapProportional {
			hasProp = true
			t.src.sensitiveMark = epoch
		}
	}
	if hasProp && dt > units.Second {
		// For dt ≤ 1 s a proportional tap can never overdraw its source
		// (want ≤ level × dt/1s); coarser batches void that argument.
		return 0
	}
	if extra > 0 && g.battery.sensitiveMark == epoch {
		return 0
	}

	g.settleTelescope = g.settleTelescope[:0]
	g.settleReplay = g.settleReplay[:0]
	g.settleSrcs = g.settleSrcs[:0]
	for _, t := range g.active {
		if t.kind == TapProportional {
			g.settleReplay = append(g.settleReplay, t)
			continue
		}
		if int64(t.rate) > horizonCap/int64(dt) {
			return 0
		}
		// Sensitive reserves need no depletion bound: every tap touching
		// them is replayed batch by batch in sequence order, so their
		// whole trajectory — clamping included — is exact by
		// construction. (The battery is the one exception, handled by
		// the extra-drain rejection above.)
		if t.src.sensitiveMark != epoch {
			g.addSettleDrain(t.src, epoch, int64(t.rate)*int64(dt), t.carry)
		}
		if t.src.sensitiveMark == epoch || t.sink.sensitiveMark == epoch {
			g.settleReplay = append(g.settleReplay, t)
		} else {
			g.settleTelescope = append(g.settleTelescope, t)
		}
	}
	if extra > 0 {
		if int64(extra) > horizonCap/int64(dt) {
			return 0
		}
		// The caller's own carry is invisible here; budget a full one.
		g.addSettleDrain(g.battery, epoch, int64(extra)*int64(dt), 999)
	}

	horizon := int64(horizonCap)
	for _, r := range g.settleSrcs {
		if r.settleDrain <= 0 {
			continue
		}
		if r.settleDrain >= horizonCap {
			return 0
		}
		// Worst-case outflow over k batches, in µJ·10⁻³: k × Σ(rate·dt)
		// plus each draining tap's current carry (the exact telescoped
		// bound: Σ ⌊(rate·dt·k + carry)/1000⌋ ≤ (k·Σrate·dt + Σcarry)/1000).
		// Using the live carries instead of a fixed per-tap slack makes
		// the horizon exactly monotone under settlement.
		avail := int64(r.level)
		if avail <= 0 {
			return 0
		}
		if avail > horizonCap/1000 {
			avail = horizonCap
		} else {
			avail *= 1000
		}
		avail -= r.settleCarry
		if avail < r.settleDrain {
			return 0
		}
		if k := avail / r.settleDrain; k < horizon {
			horizon = k
		}
	}
	return horizon
}

// addSettleDrain accumulates one tap's (or the caller's) per-batch
// worst-case outflow onto its source reserve for the current planning
// epoch, registering the reserve as a drain source on first touch.
func (g *Graph) addSettleDrain(r *Reserve, epoch uint64, perBatchScaled, carry int64) {
	if r.settleMark != epoch {
		r.settleMark = epoch
		r.settleDrain = 0
		r.settleCarry = 0
		g.settleSrcs = append(g.settleSrcs, r)
	}
	// Saturating add: several near-cap rates on one source must not
	// wrap the drain sum negative (the horizon loop treats a
	// saturated drain as "replay only").
	if r.settleDrain > horizonCap-perBatchScaled {
		r.settleDrain = horizonCap
	} else {
		r.settleDrain += perBatchScaled
	}
	r.settleCarry += carry
}

// settleChunk settles up to n batches in closed form, returning how many
// it advanced (0 when the horizon demands an exact per-batch walk). The
// chunk is exact: within the horizon no tap can clamp, so the telescoped
// constant taps commute with the sequence-ordered replay of the
// sensitive set. Bites of b inside the chunk are folded in and consumed
// when planBites allows it; otherwise the chunk ends at the next bite,
// which the caller applies.
func (g *Graph) settleChunk(dt units.Time, n int64, extra units.Power, b *Bites) int64 {
	k := g.planSettle(dt, extra)
	if k <= 0 {
		return 0
	}
	if k > n {
		k = n
	}
	var p *Tap
	var feed int64
	if len(g.settleReplay) > 0 {
		p, feed = g.backwardTap(dt, k)
	}
	var nb int64
	if b.Count > 0 && b.First <= k {
		if g.planBites(p) {
			nb = min((k-b.First)/b.Every+1, b.Count)
			g.foldBites(dt, b, nb)
		} else {
			k = b.First
		}
	}
	for _, t := range g.settleTelescope {
		total := int64(t.rate)*int64(dt)*k + t.carry
		moved := units.Energy(total / 1000)
		t.carry = total % 1000
		if moved > 0 {
			t.src.debit(moved)
			t.sink.credit(moved)
			t.stats.Moved += moved
		}
	}
	if len(g.settleReplay) > 0 {
		if p != nil {
			g.settleBackwardTap(p, feed, dt, k, b, nb)
		} else {
			for i := int64(0); i < k; i++ {
				for _, t := range g.settleReplay {
					t.flow(dt)
				}
			}
		}
		g.flowWalks += k
	}
	if nb > 0 {
		b.Count -= nb
		b.First += nb * b.Every
	}
	g.settledBatches += k
	return k
}

// planBites reports whether the bites inside the current chunk fold into
// it, and lists in g.biteList the decayable reserves they can change. A
// bite reads every decayable level, so it folds only when each such
// level is known at every bite without replaying the chunk batch by
// batch:
//
//   - a reserve no active tap touches changes only by its own bites;
//   - a reserve fed only by telescoped constant taps holds its pre-chunk
//     level plus those taps' telescoped credits through the bite
//     (foldBites computes them from the pre-chunk carries);
//   - the backward-tap reserve S is bitten inside settleBackwardTap's
//     loop, every Every batches.
//
// A decayable reserve some tap drains, a replay set of any other shape
// and a battery read by a proportional tap (bites credit the battery)
// refuse the fold; the chunk then ends at the bite and Decay runs.
func (g *Graph) planBites(p *Tap) bool {
	g.biteList = g.biteList[:0]
	if g.halfLife < 0 || len(g.decayable) == 0 {
		return true // every bite is a no-op
	}
	epoch := g.settleEpoch
	if g.battery.sensitiveMark == epoch {
		return false
	}
	var s *Reserve
	if len(g.settleReplay) > 0 {
		if p == nil {
			return false
		}
		s = p.src
	}
	for _, t := range g.active {
		if t.src != s && !t.src.decayExempt {
			return false
		}
		if t.sink == s || t.sink.decayExempt {
			continue
		}
		if t.kind == TapProportional || t.src.sensitiveMark == epoch || t.sink.sensitiveMark == epoch {
			return false
		}
		t.sink.biteMark = epoch
	}
	for _, r := range g.decayable {
		if r != s && (r.level > 0 || r.biteMark == epoch) {
			g.biteList = append(g.biteList, r)
		}
	}
	return true
}

// foldBites applies the first nb bites of b to g.biteList before the
// chunk's telescoped credits land: a tap-fed reserve is bitten at its
// level plus the credits its taps would have made through the bitten
// batch, ⌊(rate·dt·j + carry)/1000⌋ from the pre-chunk carries.
func (g *Graph) foldBites(dt units.Time, b *Bites, nb int64) {
	if len(g.biteList) == 0 {
		return
	}
	f := g.retentionFactor(b.DT)
	epoch := g.settleEpoch
	for i, j := int64(0), b.First; i < nb; i, j = i+1, j+b.Every {
		for _, t := range g.settleTelescope {
			if t.sink.biteMark == epoch {
				t.sink.biteIn += units.Energy((int64(t.rate)*int64(dt)*j + t.carry) / 1000)
			}
		}
		for _, r := range g.biteList {
			g.bite(r, r.level+r.biteIn, f)
			r.biteIn = 0
		}
	}
}

// backwardTap recognizes the §5.2.1 backward-tap shape in the current
// replay set — constant feeds topping up a reserve S that one backward
// proportional tap P taxes — and returns P with the feeds' summed
// per-batch inflow into S in µJ, or nil when the chunk must take the
// per-tap replay. The shape is exactly:
//
//   - P is the only proportional tap, with frac ≤ 10⁶ PPM, S's level is
//     ≥ 0 and P's carry is a normal non-negative residue;
//   - every other replayed tap is a constant tap into S created before P
//     (the set is in creation order, so P comes last) that moves a whole
//     number of µJ per batch from a normal residue (rate·dt % 1000 == 0,
//     0 ≤ carry < 1000), so each batch adds the same amount to S. S is
//     then the one sensitive reserve, so no feed's source is sensitive
//     and the horizon budgets every feed;
//   - S's level stays below MaxInt64/frac across the chunk, so
//     level × frac cannot overflow.
func (g *Graph) backwardTap(dt units.Time, k int64) (*Tap, int64) {
	n := len(g.settleReplay)
	p := g.settleReplay[n-1]
	s := p.src
	if p.kind != TapProportional || p.frac > 1_000_000 || s.level < 0 || p.carry < 0 || p.carry >= 1000 {
		return nil, 0
	}
	var feed int64
	for _, t := range g.settleReplay[:n-1] {
		if t.kind != TapConst || t.sink != s || t.carry < 0 || t.carry >= 1000 {
			return nil, 0
		}
		scaled := int64(t.rate) * int64(dt)
		if scaled%1000 != 0 {
			return nil, 0
		}
		feed += scaled / 1000
	}
	lim := math.MaxInt64 / int64(p.frac)
	if int64(s.level) > lim || feed > (lim-int64(s.level))/k {
		return nil, 0
	}
	return p, feed
}

// settleBackwardTap advances k batches of a backwardTap-shaped replay
// set. Each batch is the per-tap replay's recurrence on locals: the
// feeds add feed µJ to S, then P moves w = ⌊(⌊L·frac/10⁶⌋·dt + carry)/1000⌋.
// No clamp can occur — planSettle refuses proportional taps for
// dt > 1 s, and for dt ≤ 1 s w ≤ L, so P never starves; the horizon
// budgets every feed's source, so no feed starves either — and every
// stat is an order-independent integer sum, so one write-back per chunk
// reproduces the per-batch walk exactly. The first nb bites of b, folded
// by the caller, bite S after their batches.
func (g *Graph) settleBackwardTap(p *Tap, feed int64, dt units.Time, k int64, b *Bites, nb int64) {
	s := p.src
	for _, t := range g.settleReplay[:len(g.settleReplay)-1] {
		moved := units.Energy(int64(t.rate) * int64(dt) / 1000 * k)
		t.src.debit(moved)
		t.stats.Moved += moved
	}
	var f int64
	if nb > 0 && !s.decayExempt {
		f = g.retentionFactor(b.DT)
	} else {
		nb = 0
	}
	l0 := uint64(s.level)
	in := uint64(feed) * uint64(k)
	l, a, frac, d, carry := l0, uint64(feed), uint64(p.frac), uint64(dt), uint64(p.carry)
	dcarry := s.decayCarry
	var decayed units.Energy
	for i, bitten := int64(0), int64(0); ; bitten++ {
		end := k
		if bitten < nb {
			end = b.First + bitten*b.Every
		}
		for ; i < end; i++ {
			l += a
			total := l*frac/1_000_000*d + carry
			w := total / 1000
			carry = total - 1000*w
			l -= w
		}
		if bitten == nb {
			break
		}
		if leak := decayLeak(units.Energy(l), f, &dcarry); leak > 0 {
			l -= uint64(leak)
			decayed += leak
		}
	}
	taxed := units.Energy(l0+in-l) - decayed
	s.level = units.Energy(l)
	s.stats.In += units.Energy(in)
	s.stats.Out += taxed + decayed
	s.stats.Decayed += decayed
	s.decayCarry = dcarry
	p.carry = int64(carry)
	if taxed > 0 {
		p.sink.credit(taxed)
		p.stats.Moved += taxed
	}
	if decayed > 0 {
		g.battery.credit(decayed)
	}
}
