// Package netd implements Cinder's cooperative network stack (§5.5).
//
// netd owns a pooled reserve into which threads "cooperatively save up
// energy for a radio power up event". A network call whose caller —
// together with the pool — cannot afford the radio's activation cost
// blocks, contributes the energy its taps have accumulated to the pool,
// and sleeps until the pool reaches the threshold (125 % of the
// activation estimate, so senders have headroom for the packets
// themselves, Fig. 14). When the threshold is met netd debits the pool,
// powers the radio, and releases every waiting thread at once — the
// delegation mechanism that merges the staggered activations of Fig. 13a
// into the synchronized ones of Fig. 13b.
//
// Marginal packet costs are charged to each caller's own reserve, into
// debt when the cost is only known after the fact (incoming bytes,
// §5.5.2). Accurate attribution across the IPC boundary comes for free:
// applications reach netd through a kernel gate, so the calling thread
// is billed even while executing netd's code (§5.5.1).
package netd

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/radio"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/trace"
	"repro/internal/units"
)

// GateName is the IPC entry point applications call.
const GateName = "netd.poll"

// DefaultThresholdPct is the pool threshold as a percentage of the
// radio activation estimate (§6.4: "netd requires 125 % of this level
// before turning the radio on").
const DefaultThresholdPct = 125

// DefaultSweepPeriod is how often netd sweeps waiting threads' reserves
// into the pool and re-checks the threshold.
const DefaultSweepPeriod = 100 * units.Millisecond

// ErrNotThread reports a gate call without a thread context.
var ErrNotThread = errors.New("netd: caller has no reserve")

// Config parameterizes a Netd instance.
type Config struct {
	// Cooperative selects the §5.5 policy. False yields the
	// "energy-unrestricted network stack" baseline of §6.4: requests go
	// straight to the radio, which bills the battery.
	Cooperative bool
	// ThresholdPct overrides DefaultThresholdPct.
	ThresholdPct int
	// SweepPeriod overrides DefaultSweepPeriod.
	SweepPeriod units.Time
	// Estimator optionally replaces the static activation-cost constant
	// with an online estimate refined from past activations (§9 /
	// internal/estimator). Nil keeps the offline-measured 9.5 J.
	Estimator interface{ Estimate() units.Energy }
	// QuiescentSweep parks the periodic sweep while no caller is
	// waiting; a new waiter revives it. A sweep with no waiters changes
	// no state — it only samples the pool trace — so results are
	// unaffected, but the device can fully quiesce between sessions
	// (the fleet runner enables this; experiments keep the dense trace).
	QuiescentSweep bool
	// NoPoolTrace disables the 100 ms pool-level sampling entirely. The
	// trace exists for the paper's Fig. 14; at fleet scale it is dead
	// weight — a device-week accumulates tens of thousands of samples
	// that no report reads but every checkpoint would have to carry —
	// so the fleet runner turns it off. Zero value keeps the trace, as
	// the experiments require.
	NoPoolTrace bool
	// Settle selects closed-form sweep settlement: instead of executing
	// a sweep every 100 ms while callers wait, netd computes the exact
	// boundary at which the pool crosses the threshold, defers the sweep
	// task there, and replays the skipped drains in one exact fixup per
	// waiter when the prediction is synchronized or dropped. SettleAuto
	// (the zero value) resolves to the kernel package default; the mode
	// only engages when the kernel itself runs closed-form settlement on
	// a next-event engine (every firing executes anyway otherwise) and
	// Cooperative pooling is on. SettlePerBatch forces per-sweep
	// execution — the fleet's -per-sweep A/B flag.
	Settle kernel.SettleMode
}

// Request is the argument applications pass through the netd gate: a
// poll session against a mail or RSS server, made of one or more
// sequential request/response exchanges (a pop3 conversation is several
// round trips).
type Request struct {
	// ReqBytes is the outbound request size per exchange.
	ReqBytes int
	// RespBytes is the expected response size per exchange.
	RespBytes int
	// Exchanges is the number of sequential round trips in the session;
	// 0 means 1.
	Exchanges int
	// OnDone, if non-nil, runs when the final response has been
	// delivered.
	OnDone func(at units.Time)
}

// Stats counts netd activity.
type Stats struct {
	// Polls is the number of gate calls accepted.
	Polls int64
	// Blocked is the number of calls that had to wait for the pool.
	Blocked int64
	// Immediate is the number of calls served without waiting.
	Immediate int64
	// PowerUps is the number of radio activations netd paid for.
	PowerUps int64
	// Pooled is the total energy swept into the pool from callers.
	Pooled units.Energy
	// Abandoned is the number of waiters dropped because their thread
	// exited or their billing reserve died mid-wait (a workload torn
	// down around them). They can never complete a session; keeping
	// them queued would pin the sweep loop at its period forever and
	// leave the device permanently checkpoint-unquiet.
	Abandoned int64
	// SettledSweeps is the number of sweep boundaries accounted in
	// closed form instead of executed as task firings. Together with the
	// engine's step counter it quantifies the busy-path win; it is
	// reported outside the canonical fleet JSON because per-sweep A/B
	// runs legitimately differ here.
	SettledSweeps int64
}

type waiter struct {
	th   *sched.Thread
	priv label.Priv
	bill *core.Reserve
	req  Request
}

// Netd is the network daemon.
type Netd struct {
	k     *kernel.Kernel
	radio *radio.Radio
	cfg   Config

	cat       label.Category
	priv      label.Priv
	pool      *core.Reserve
	container *kobj.Container
	waiters   []waiter
	stats     Stats
	poolTrace *trace.Series
	sweepTask *sim.Task

	// Closed-form sweep settlement (see Config.Settle). closedForm is
	// the resolved mode; settling marks the sweep task deferred to the
	// predicted pool-crossing instant; lastSweep is the last boundary
	// whose waiter drains are applied (executed or replayed); predicted
	// is the deferred-to instant, for diagnostics. The scratch slices
	// make prediction and replay allocation-free in steady state.
	closedForm bool
	settling   bool
	replaying  bool
	lastSweep  units.Time
	predicted  units.Time
	scratch    []*core.Tap
	predTaps   []predTap
	predLvls   []int64
}

// predTap is prediction scratch state for one constant tap feeding a
// waiter: rdm is the per-sweep-period numerator rate·batch·(period/batch)
// in µJ·10⁻³, carry the simulated sub-µJ residue, w the waiter index.
type predTap struct {
	rdm   int64
	carry int64
	w     int
}

// New creates netd, its pooled reserve (decay-exempt: §5.5.2 trusts
// netd not to hoard), and registers its gate on the kernel.
func New(k *kernel.Kernel, r *radio.Radio, cfg Config) (*Netd, error) {
	n := &Netd{}
	if err := n.Reset(k, r, cfg); err != nil {
		return nil, err
	}
	return n, nil
}

// Reset reinitializes the daemon in place to the exact state New would
// produce against the given (typically recycled) kernel: fresh category,
// container, pool, gate and sweep task, all counters zero. The fleet
// runner recycles one netd per worker this way.
func (n *Netd) Reset(k *kernel.Kernel, r *radio.Radio, cfg Config) error {
	if cfg.ThresholdPct == 0 {
		cfg.ThresholdPct = DefaultThresholdPct
	}
	if cfg.SweepPeriod == 0 {
		cfg.SweepPeriod = DefaultSweepPeriod
	}
	n.k, n.radio, n.cfg = k, r, cfg
	n.cat = k.NewCategory()
	n.priv = label.NewPriv(n.cat)
	n.container = kobj.NewContainer(k.Table, k.Root, "netd", label.Public())
	poolLabel := label.Public().With(n.cat, label.Level2)
	n.pool = k.CreateReserveOpts(n.container, "netd-pool", poolLabel, core.ReserveOpts{
		DecayExempt: true,
	})
	clear(n.waiters)
	n.waiters = n.waiters[:0]
	n.stats = Stats{}
	if n.poolTrace == nil {
		n.poolTrace = trace.NewSeries("netd-pool", "µJ")
	} else {
		n.poolTrace.Reset("netd-pool", "µJ")
	}

	_, err := k.RegisterGate(n.container, GateName, label.Public(), n.priv, n.pool,
		func(call *kernel.Call) (any, error) { return nil, n.handlePoll(call) })
	if err != nil {
		return fmt.Errorf("netd: %w", err)
	}
	n.sweepTask = k.Eng.Every("netd:sweep", cfg.SweepPeriod, func(e *sim.Engine) { n.sweep(e.Now()) })

	settle := cfg.Settle
	if settle == kernel.SettleAuto {
		settle = kernel.DefaultSettleMode()
	}
	n.closedForm = cfg.Cooperative && settle == kernel.SettleClosedForm && k.LazySettle()
	n.settling = false
	n.lastSweep = 0
	n.predicted = 0
	if n.closedForm {
		k.AddSweepSettler(n)
	}
	return nil
}

// SetEstimator installs an online activation-cost estimator after
// construction (Config.Estimator set late). The fleet builds netd
// before the scenario runs, but the estimator needs the device's radio
// — so scenarios wire it from Build, before the simulation starts.
// Settlement stays exact: the estimate only changes when a radio
// episode ends, and no pool-crossing deferral is in force while the
// radio is awake (settleGuard requires Sleep; a wake-up invalidates).
func (n *Netd) SetEstimator(est interface{ Estimate() units.Energy }) {
	n.cfg.Estimator = est
}

// Pool returns netd's pooled reserve (observable by anyone; Fig. 14
// samples it).
func (n *Netd) Pool() *core.Reserve { return n.pool }

// PoolTrace returns the sampled pool-level series.
func (n *Netd) PoolTrace() *trace.Series { return n.poolTrace }

// Stats returns a copy of the counters.
func (n *Netd) Stats() Stats { return n.stats }

// Priv returns netd's privilege set (tests use it to inspect the pool).
func (n *Netd) Priv() label.Priv { return n.priv }

// handlePoll services one gate call.
func (n *Netd) handlePoll(call *kernel.Call) error {
	th := call.Caller
	if th.ActiveReserve() == nil {
		return ErrNotThread
	}
	n.stats.Polls++
	req, ok := call.Args.(Request)
	if !ok {
		return fmt.Errorf("netd: bad request type %T", call.Args)
	}
	// Network calls are synchronous: the caller blocks until its
	// response is delivered (and, cooperatively, until the pool can
	// afford the radio).
	th.Block()
	if !n.cfg.Cooperative {
		// Baseline: straight to the radio, marginal cost on the caller,
		// activation cost on the battery.
		n.stats.Immediate++
		n.runSession(call.Now, waiter{th: th, priv: call.BillPriv(), bill: call.BillTo(), req: req})
		return nil
	}

	n.pruneWaiters()
	w := waiter{th: th, priv: call.BillPriv(), bill: call.BillTo(), req: req}
	n.waiters = append(n.waiters, w)
	if n.cfg.QuiescentSweep {
		n.sweepTask.Resume()
	}
	// A new waiter changes the pool inflow; any closed-form prediction
	// made without it is stale. (The kernel's activity hooks usually
	// dropped it already when this caller's thread last woke.)
	n.InvalidateSweeps()
	// Contribute whatever the caller's taps have accumulated (§5.5.2).
	n.contribute(w)
	if n.poolReady(call.Now) {
		n.stats.Immediate++
		n.fire(call.Now)
		return nil
	}
	n.stats.Blocked++
	return nil
}

// pruneWaiters drops waiters that can never complete: their thread has
// exited or their billing reserve has died (workload teardown
// mid-wait). A dead billing reserve contributes nothing at every
// future sweep and disqualifies closed-form settlement, so a stranded
// waiter would otherwise grind the sweep task at its period for the
// rest of the run — and block checkpointing forever, since the device
// never goes netd-quiet. Energy the waiter already pooled stays in the
// pool for future sessions.
func (n *Netd) pruneWaiters() {
	kept := n.waiters[:0]
	for _, w := range n.waiters {
		if w.th.State() == sched.Exited || w.bill.Dead() {
			n.stats.Abandoned++
			continue
		}
		kept = append(kept, w)
	}
	n.waiters = kept
}

// contribute sweeps the caller's available energy into the pool.
func (n *Netd) contribute(w waiter) {
	moved, err := n.k.Graph.TransferUpTo(w.priv, w.th.ActiveReserve(), n.pool, units.MaxEnergy)
	if err == nil {
		n.stats.Pooled += moved
	}
}

// activationCost returns the energy a power-up is expected to add: the
// radio's model prediction, or the online estimator's when one is
// configured and the radio is asleep.
func (n *Netd) activationCost(now units.Time) units.Energy {
	if n.cfg.Estimator != nil && n.radio.State() == radio.Sleep {
		return n.cfg.Estimator.Estimate()
	}
	return n.radio.ActivationCost(now)
}

// threshold returns the pool level required before powering the radio.
func (n *Netd) threshold(now units.Time) units.Energy {
	return n.activationCost(now) * units.Energy(n.cfg.ThresholdPct) / 100
}

// poolReady reports whether the pool can cover the current threshold.
func (n *Netd) poolReady(now units.Time) bool {
	lvl, err := n.pool.Level(n.priv)
	if err != nil {
		return false
	}
	need := n.threshold(now)
	return lvl >= need
}

// sweep runs periodically: waiting threads keep contributing their tap
// inflow, and the pool fires when it reaches the threshold. Under
// closed-form settlement a sweep that leaves the pool short re-predicts
// the crossing instant and defers the task there instead of grinding
// through every 100 ms boundary in between.
func (n *Netd) sweep(now units.Time) {
	if !n.cfg.NoPoolTrace {
		n.poolTrace.Add(now, func() int64 {
			lvl, _ := n.pool.Level(n.priv)
			return int64(lvl)
		}())
	}
	n.settling = false
	n.lastSweep = now
	n.pruneWaiters()
	if len(n.waiters) == 0 {
		if n.cfg.QuiescentSweep {
			n.sweepTask.Park()
		}
		return
	}
	for _, w := range n.waiters {
		n.contribute(w)
	}
	if n.poolReady(now) {
		n.fire(now)
		return
	}
	n.maybeSettle(now)
}

// maybeSettle predicts the boundary at which the pool will cross the
// threshold and defers the sweep task there. The engine keeps the
// deferral exact: the kernel synchronizes the settler before every
// executed instant (replaying the skipped drains), any activity that
// could perturb the prediction invalidates it, and a prediction that
// fires early is harmless — the sweep re-checks and re-predicts.
func (n *Netd) maybeSettle(now units.Time) {
	if !n.closedForm || now%n.cfg.SweepPeriod != 0 || !n.settleGuard() {
		return
	}
	t := n.predictFire(now)
	if t <= now+n.cfg.SweepPeriod {
		return // next boundary fires anyway; stay on the grid
	}
	n.sweepTask.DeferUntil(t)
	n.settling = true
	n.predicted = t
	n.k.PinDecay()
}

// settleGuard reports whether the pooling loop is in the regime the
// closed-form model covers exactly:
//
//   - sweep boundaries lie on the tap-batch grid, so per-boundary
//     credits decompose from telescoped batch flows;
//   - no pool trace — a trace samples every boundary, which skipping
//     would lose (experiments keep the trace and fall back to per-sweep
//     execution, preserving the frozen plot hashes);
//   - the radio is asleep, so the activation cost — and with it the
//     threshold — is constant until a wake-up, which invalidates;
//   - no tap touches the pool, so contributions are its only inflow;
//   - every waiter's billing reserve is alive, drained by no tap, and
//     fed only by constant-rate taps (proportional inflow is
//     level-coupled and does not telescope).
//
// Decay needs no guard here: while a sweep is deferred netd pins the
// kernel's decay task to its 1 s grid (PinsDecay), so bites occur at
// executed instants, the settler is synchronized before each, and a
// prediction that ignores future bites only errs early.
func (n *Netd) settleGuard() bool {
	if n.cfg.SweepPeriod%n.k.TapBatch() != 0 {
		return false
	}
	if !n.cfg.NoPoolTrace {
		return false
	}
	if n.radio.State() != radio.Sleep {
		return false
	}
	g := n.k.Graph
	if g.ReserveTapped(n.pool) {
		return false
	}
	for i := range n.waiters {
		w := &n.waiters[i]
		if w.bill == nil || w.bill.Dead() {
			return false
		}
		if g.ReserveDrainedByTap(w.bill) {
			return false
		}
		n.scratch = g.TapsInto(w.bill, n.scratch[:0])
		for _, t := range n.scratch {
			if t.Kind() != core.TapConst {
				return false
			}
		}
	}
	return true
}

// predictFire returns the first sweep boundary after now at which the
// pool reaches the threshold, simulating the per-boundary drains in
// closed form: each constant tap credits ⌊(rate·batch·m + carry)/1000⌋ µJ
// per sweep period (m batches), carries telescope exactly, and every
// boundary drains each waiter's positive level into the pool. The result
// is capped at the depletion horizon — beyond it a source could clamp
// and constant-rate extrapolation lies — and at a fixed iteration bound;
// a capped prediction just re-predicts when the sweep fires there.
// Returns 0 when no boundary can be trusted.
func (n *Netd) predictFire(now units.Time) units.Time {
	poolLvl, err := n.pool.Level(n.priv)
	if err != nil {
		return 0
	}
	need := n.threshold(now)
	period := n.cfg.SweepPeriod
	dt := n.k.TapBatch()
	m := int64(period / dt)
	maxSweeps := n.k.SweepHorizonBatches() / m
	const sweepCap = 1 << 14
	if maxSweeps > sweepCap {
		maxSweeps = sweepCap
	}
	if maxSweeps < 2 {
		return 0
	}
	n.predTaps = n.predTaps[:0]
	n.predLvls = n.predLvls[:0]
	for i := range n.waiters {
		w := &n.waiters[i]
		lvl, err := w.bill.Level(w.priv)
		if err != nil || lvl > 0 {
			// Unreadable or undrainable (a failing contribute leaves a
			// surplus): model the reserve as drained. Extra modeled
			// contributions only predict the crossing early, which is
			// safe — the sweep fires, re-checks, re-predicts.
			lvl = 0
		}
		n.predLvls = append(n.predLvls, int64(lvl))
		n.scratch = n.k.Graph.TapsInto(w.bill, n.scratch[:0])
		for _, t := range n.scratch {
			n.predTaps = append(n.predTaps, predTap{
				rdm:   int64(t.Rate()) * int64(dt) * m,
				carry: t.Carry(),
				w:     i,
			})
		}
	}
	pool := int64(poolLvl)
	for s := int64(1); s <= maxSweeps; s++ {
		for ti := range n.predTaps {
			t := &n.predTaps[ti]
			tot := t.rdm + t.carry
			t.carry = tot % 1000
			n.predLvls[t.w] += tot / 1000
		}
		for wi := range n.predLvls {
			if n.predLvls[wi] > 0 {
				pool += n.predLvls[wi]
				n.predLvls[wi] = 0
			}
		}
		if pool >= int64(need) {
			return now + units.Time(s)*period
		}
	}
	return now + units.Time(maxSweeps)*period
}

// replayThrough applies, in one exact fixup per waiter, the drains the
// deferred sweep task skipped at every boundary in (lastSweep, limit].
// For a reserve whose only credits are non-negative constant-tap flows,
// draining max(0, level) at boundaries b₁..bₖ moves in total
// max(0, L₀ + Cₖ) — L₀ the level after the lastSweep drain, Cₖ the
// credits through bₖ — and leaves min(0, L₀+Cₖ). The current level
// already includes ρ, the credits applied after bₖ (the kernel settles
// tap batches before synchronizing settlers), so the fixup transfers
// max(0, level−ρ); ρ decomposes backward from each tap's current carry,
// since constant-tap carries evolve linearly mod 1000.
func (n *Netd) replayThrough(limit units.Time) {
	period := n.cfg.SweepPeriod
	last := limit - limit%period
	if last <= n.lastSweep {
		return
	}
	swept := int64((last - n.lastSweep) / period)
	settled := n.k.TapsSettledThrough()
	dt := n.k.TapBatch()
	g := n.k.Graph
	// The fixup transfers below fire the graph's tap-activity hook, which
	// routes back here as InvalidateSweeps. Those transfers are the
	// replay's own — modeled exactly by the prediction — so invalidating
	// on them would tear down the deferral it is servicing.
	n.replaying = true
	defer func() { n.replaying = false }()
	for i := range n.waiters {
		w := &n.waiters[i]
		lvl, err := w.bill.Level(w.priv)
		if err != nil {
			// Per-sweep execution's TransferUpTo fails identically at
			// every skipped boundary, moving nothing.
			continue
		}
		var rho units.Energy
		if settled > last {
			j := int64((settled - last) / dt)
			n.scratch = g.TapsInto(w.bill, n.scratch[:0])
			for _, t := range n.scratch {
				tot := int64(t.Rate()) * int64(dt) * j
				carry := t.Carry()
				start := ((carry-tot)%1000 + 1000) % 1000
				rho += units.Energy((tot + start - carry) / 1000)
			}
		}
		if pre := lvl - rho; pre > 0 {
			if moved, err := g.TransferUpTo(w.priv, w.bill, n.pool, pre); err == nil {
				n.stats.Pooled += moved
			}
		}
	}
	n.stats.SettledSweeps += swept
	n.lastSweep = last
}

// SyncSweeps implements kernel.SweepSettler: called before every
// executed instant (after tap/baseline/device settlement has caught up),
// it replays the boundaries the deferred sweep task skipped strictly
// before now and, when a boundary lands exactly now, hands the firing
// back to the task so it runs in its registration slot — after the
// kernel's decay task, exactly where per-sweep execution puts it.
func (n *Netd) SyncSweeps(now units.Time) {
	if !n.settling {
		return
	}
	n.replayThrough(now - 1)
	if now%n.cfg.SweepPeriod == 0 && n.sweepTask.NextDue() > now {
		n.settling = false
		n.sweepTask.ResumeAt(now)
	}
}

// SettleSweeps implements kernel.SweepSettler: closes out a Run whose
// stop instant the engine never executed. Skipped boundaries strictly
// before the stop replay as usual; a boundary exactly at the stop runs
// as a direct sweep, after the kernel's own at-stop boundary work.
func (n *Netd) SettleSweeps(now units.Time) {
	if !n.settling {
		return
	}
	n.replayThrough(now - 1)
	if now%n.cfg.SweepPeriod == 0 && n.sweepTask.NextDue() > now {
		n.settling = false
		n.sweep(now)
	}
}

// InvalidateSweeps implements kernel.SweepSettler: any activity that
// could perturb the prediction — a thread woken, a tap activated,
// changed or released, a decayable reserve created, the radio woken, a
// new waiter — returns the sweep task to its periodic grid. Boundaries
// skipped so far replay at the next executed instant; none are lost,
// because the resumed task's next firing is the first grid boundary at
// or after now.
func (n *Netd) InvalidateSweeps() {
	if n.replaying || !n.settling {
		return
	}
	n.settling = false
	n.sweepTask.Resume()
}

// PinsDecay implements kernel.DecayPinner: the replay fixup assumes
// every decay bite on a waiter's reserve lands at an executed instant,
// after the settler has synchronized, so a deferred sweep keeps the
// kernel's decay task on its grid.
func (n *Netd) PinsDecay() bool { return n.settling }

// PredictedFire returns the instant the deferred sweep expects the pool
// to cross the threshold, or 0 while the sweep rides its periodic grid
// (diagnostics; the fuzz harness asserts it stays on the sweep grid,
// strictly in the future, ahead of the last accounted boundary).
func (n *Netd) PredictedFire() units.Time {
	if !n.settling {
		return 0
	}
	return n.predicted
}

// fire pays the radio's activation estimate out of the pool and
// releases every waiter: "every 60 seconds enough energy is saved to
// use the radio and both applications proceed simultaneously" (§6.4).
func (n *Netd) fire(now units.Time) {
	cost := n.activationCost(now)
	if cost > 0 {
		if _, err := n.k.Graph.TransferUpTo(n.priv, n.pool, n.radio.FundingReserve(), cost); err != nil {
			return
		}
		n.stats.PowerUps++
	}
	waiters := n.waiters
	n.waiters = nil
	for _, w := range waiters {
		n.runSession(now, w)
	}
}

// runSession drives the waiter's sequential exchanges and wakes the
// thread when the last response lands. Exchanges after the first run
// against an already-active radio, extending its idle window — the
// §5.5 cost model's "back-to-back actions are cheaper" regime.
func (n *Netd) runSession(now units.Time, w waiter) {
	remaining := w.req.Exchanges
	if remaining <= 0 {
		remaining = 1
	}
	var doOne func(at units.Time)
	doOne = func(at units.Time) {
		remaining--
		if remaining == 0 {
			n.radio.Exchange(at, w.req.ReqBytes, w.req.RespBytes,
				w.bill, w.priv, func(done units.Time) {
					w.th.Wake()
					if w.req.OnDone != nil {
						w.req.OnDone(done)
					}
				})
			return
		}
		n.radio.Exchange(at, w.req.ReqBytes, w.req.RespBytes,
			w.bill, w.priv, doOne)
	}
	doOne(now)
}

// WaitingThreads returns the number of blocked callers (diagnostics).
func (n *Netd) WaitingThreads() int { return len(n.waiters) }

// Snapshot serializes the daemon's mutable state. Waiters cannot be
// serialized (they hold thread and reserve references into a world the
// restore rebuilds); the fleet checkpoints only at quiescent instants
// where none exist, and Restore rejects a snapshot that recorded any.
func (n *Netd) Snapshot(w *snap.Writer) {
	w.Section("netd")
	w.U64(uint64(len(n.waiters)))
	w.I64(n.stats.Polls)
	w.I64(n.stats.Blocked)
	w.I64(n.stats.Immediate)
	w.I64(n.stats.PowerUps)
	w.I64(int64(n.stats.Pooled))
	w.I64(n.stats.Abandoned)
	w.I64(n.stats.SettledSweeps)
	w.I64(int64(n.lastSweep))
	w.Bool(n.settling)
	w.Bool(!n.cfg.NoPoolTrace)
	if !n.cfg.NoPoolTrace {
		n.poolTrace.Snapshot(w)
	}
}

// Restore overlays a snapshot onto a freshly rebuilt daemon. The pooled
// reserve's level belongs to the graph's snapshot.
func (n *Netd) Restore(r *snap.Reader) error {
	r.Section("netd")
	waiters := int(r.U64())
	stats := Stats{
		Polls:         r.I64(),
		Blocked:       r.I64(),
		Immediate:     r.I64(),
		PowerUps:      r.I64(),
		Pooled:        units.Energy(r.I64()),
		Abandoned:     r.I64(),
		SettledSweeps: r.I64(),
	}
	lastSweep := units.Time(r.I64())
	settling := r.Bool()
	traced := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if waiters > 0 {
		return fmt.Errorf("netd: restore: snapshot recorded %d blocked callers; "+
			"a netd session spans executed instants whose waiter state (thread "+
			"and reserve references, predicted pool-crossing) cannot be "+
			"serialized — checkpoint at a quiet point between sessions instead "+
			"(the fleet runner's chunk boundaries qualify; mid-wait instants do not)", waiters)
	}
	if settling {
		// settling without waiters is unreachable (predictions exist only
		// while callers wait); reject rather than resume inconsistently.
		return fmt.Errorf("netd: restore: snapshot recorded a deferred sweep with no waiters")
	}
	if traced != !n.cfg.NoPoolTrace {
		return fmt.Errorf("netd: restore: snapshot pool tracing %v, rebuilt daemon %v", traced, !n.cfg.NoPoolTrace)
	}
	if traced {
		if err := n.poolTrace.Restore(r); err != nil {
			return err
		}
	}
	n.stats = stats
	n.lastSweep = lastSweep
	n.settling = false
	return nil
}

var (
	_ kernel.SweepSettler = (*Netd)(nil)
	_ kernel.DecayPinner  = (*Netd)(nil)
)
