// Package fleet simulates populations of independent Cinder devices
// concurrently: N complete systems (kernel, radio, netd, applications),
// each on its own deterministic engine, sharded across a bounded worker
// pool and reduced to aggregate battery-life / consumed-energy /
// utilization statistics.
//
// Determinism is preserved at fleet scale: every device's RNG seed is
// derived from the fleet seed and the device index by a splitmix64 hash,
// devices never share mutable state, and results are reduced in strict
// device-index order through a bounded admission window. The same
// (seed, devices, scenario, duration) always produces identical reports
// regardless of worker count or scheduling, which the package tests
// assert under the race detector.
//
// Three mechanisms make week-scale million-device runs first-class
// workloads (checkpoint.go, shard.go):
//
//   - every aggregate is integer-mergeable (sums, counts, and a
//     log-linear quantile sketch instead of retained sample arrays), so
//     reports stay O(buckets) at any fleet size;
//   - a run can be partitioned with Config.ShardIndex/ShardCount into
//     independent processes whose partial reports merge into the exact
//     canonical JSON a single process produces;
//   - a run can checkpoint every device's full state into epoch files at
//     sim-day boundaries and resume after an interruption, byte-identical
//     to an uninterrupted run.
package fleet

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/kernel"
	"repro/internal/msm"
	"repro/internal/netd"
	"repro/internal/power"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/snap"
	"repro/internal/units"
)

// defaultWorkers bounds the pool at the machine's parallelism.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// DefaultLifeResolution is how often a device checks its battery for
// exhaustion (and stops simulating once dead), and the horizon the
// battery must sustain at baseline draw for the device to count as
// alive (kernel.BatteryExhaustedFor explains why one batch is too
// short).
const DefaultLifeResolution = units.Second

// Device is one member of the fleet: a fully assembled simulated phone.
// Scenarios install workloads onto it; collectors read it back.
type Device struct {
	Index int
	// Seed is the device's derived RNG seed.
	Seed int64
	// Rand is a deterministic stream for scenario parameter jitter
	// (poll phases, payload spreads), separate from the engine's RNG so
	// workload construction cannot perturb run-time randomness.
	Rand   *splitmix
	Kernel *kernel.Kernel
	Radio  *radio.Radio
	Netd   *netd.Netd
	// Smdd is the device's ARM9 baseband daemon. It is nil until a
	// scenario that needs voice/SMS/GPS calls EnsureSmdd, so pure
	// data-path scenarios pay nothing for the modem model.
	Smdd *msm.Smdd
	// Scenario is the device's workload bucket name for per-scenario
	// report breakdowns. runDevice seeds it with the config scenario's
	// name; Mix overrides it with the chosen entry's name.
	Scenario string
	// Probes are scenario-installed callbacks run after the simulation
	// to add workload counters into the DeviceResult (PollerScenario
	// accumulates completed polls into Polls this way).
	Probes []func(*DeviceResult)
	// Hooks are scenario-installed checkpoint participants: workload
	// counters that live in install-time closures (a browse phase's
	// loaded-page count) register a SnapHook so device snapshots carry
	// them across a resume. Hooks are saved and restored in registration
	// order, which is deterministic because Build is.
	Hooks []SnapHook
}

// SnapHook is one workload's checkpoint participation: Save serializes
// its counters into a device snapshot, Load restores them after the
// workload was rebuilt.
type SnapHook struct {
	Save func(*snap.Writer)
	Load func(*snap.Reader) error
}

// EnsureSmdd boots the device's baseband daemon (shared-memory channel,
// ARM9 model, smd.* gates) on first use and returns it. Workloads that
// place calls or send SMS call this at install time so the gates exist
// before their phase fires.
func (d *Device) EnsureSmdd() (*msm.Smdd, error) {
	if d.Smdd != nil {
		return d.Smdd, nil
	}
	s, err := msm.NewSmdd(d.Kernel, msm.DefaultSmddConfig(), msm.DefaultARM9Config())
	if err != nil {
		return nil, err
	}
	d.Smdd = s
	return s, nil
}

// DeviceResult is one device's outcome.
type DeviceResult struct {
	Index int
	Seed  int64
	// Scenario is the workload bucket the device was assigned (the
	// scenario name, or the Mix entry's name for mixed fleets).
	Scenario string
	// Consumed is total energy drawn over the run.
	Consumed units.Energy
	// BatteryLeft is the battery level at the end.
	BatteryLeft units.Energy
	// Recharged is external energy credited into the battery by a
	// charger over the run (zero on discharge-only scenarios). It is
	// energy-shaped and mode-independent, so it stays in CanonicalJSON.
	Recharged units.Energy
	// Reclaimed is energy the §5.2.2 anti-hoarding decay pulled back
	// out of scenario-flagged hoard reserves (scenario probes fill it;
	// zero elsewhere). Canonical: decay is deterministic.
	Reclaimed units.Energy
	// Died reports battery exhaustion; DiedAt is the instant it was
	// detected (which can legitimately be 0 for a battery too small to
	// cover a single baseline batch).
	Died   bool
	DiedAt units.Time
	// Utilization is the CPU busy percentage; BusyTicks and IdleTicks
	// are the integer quantum counts behind it (the mergeable form the
	// aggregator actually sums).
	Utilization float64
	BusyTicks   int64
	IdleTicks   int64
	// RadioActivations counts radio power-ups.
	RadioActivations int64
	// Polls counts completed application-level polls (scenario-defined).
	Polls int64
	// Pages counts completed browsing page loads (Browse workload).
	Pages int64
	// PowerUps counts netd-funded activations.
	PowerUps int64
	// SMSSent and CallsPlaced count baseband activity (devices with an
	// Smdd only).
	SMSSent     int64
	CallsPlaced int64
	// Diag counts how the device's simulation was advanced (excluded
	// from CanonicalJSON).
	Diag Diagnostics
}

// Diagnostics are the engine-level counters of *how* a simulation was
// advanced, not what happened in it: they legitimately differ between
// modes and between checkpointed and uninterrupted runs, so
// CanonicalJSON zeroes them at every level. Every field is an integer
// sum, so fleet and shard totals merge exactly. The JSON tags are the
// report's wire keys at the fleet, device and partial-bucket levels.
type Diagnostics struct {
	// EngineSteps is the number of simulation instants the engine
	// actually executed — the quiescence fast path shows up as
	// EngineSteps ≪ simulated ticks.
	EngineSteps uint64 `json:"engine_steps"`
	// FlowWalks counts per-batch tap walks the graph performed;
	// SettledBatches counts batches advanced by closed-form settlement
	// instead. Their ratio is the busy-path fast-path engagement measure.
	FlowWalks      int64 `json:"flow_walks"`
	SettledBatches int64 `json:"settled_batches"`
	// SettledSweeps and SettledCharges count netd sweep and charger
	// quantum boundaries accounted in closed form instead of executed.
	SettledSweeps  int64 `json:"settled_sweeps"`
	SettledCharges int64 `json:"settled_charges,omitempty"`
}

func (d *Diagnostics) add(o Diagnostics) {
	d.EngineSteps += o.EngineSteps
	d.FlowWalks += o.FlowWalks
	d.SettledBatches += o.SettledBatches
	d.SettledSweeps += o.SettledSweeps
	d.SettledCharges += o.SettledCharges
}

// Scenario builds a workload onto a device. Implementations must be
// safe for concurrent use: Build runs on worker goroutines, one device
// at a time per worker, and must keep all per-device state on the
// Device.
type Scenario interface {
	Name() string
	Build(d *Device) error
}

// DeviceProvision carries per-device hardware parameters a population
// scenario draws before the device's kernel is built — the knobs that
// must be fixed at construction time and therefore cannot be chosen
// from inside Build.
//
// Precedence: a fleet-level Config.BatteryCapacity and a provisioned
// BatteryCapacity are a contradiction — the first says "every device
// gets this battery", the second says "this device draws its own" —
// so buildDevice rejects the combination loudly instead of letting one
// silently win (a -sweep battery-j run against a provisioning scenario
// used to quietly disable the heterogeneous population).
type DeviceProvision struct {
	// BatteryCapacity overrides the profile battery for this device.
	// Zero keeps the fleet-level setting.
	BatteryCapacity units.Energy
	// Profile selects the device's hardware power model. The zero
	// Profile (empty Name) keeps the kernel default (the HTC Dream);
	// a mixed-hardware population provisions power.LaptopT60p() for
	// some devices and the radio, baseline and battery all follow.
	Profile power.Profile
	// StrictHoarding enables the §5.2.2 fundamental anti-hoarding rule
	// on this device's kernel — the per-cohort knob adversarial
	// populations flip on their hoarder slice.
	StrictHoarding bool
}

// Provisioner is optionally implemented by scenarios that model a
// heterogeneous hardware population (WeekInTheLife draws per-device
// battery capacities). Provision must be deterministic in (idx, seed)
// and must not touch the device construction stream — implementations
// derive their own splitmix stream from the seed.
type Provisioner interface {
	Provision(idx int, seed int64) DeviceProvision
}

// Config parameterizes a fleet run.
type Config struct {
	// Devices is the fleet size.
	Devices int
	// Seed is the fleet master seed; per-device seeds derive from it.
	Seed int64
	// Duration is the simulated time horizon per device.
	Duration units.Time
	// Workers bounds concurrency; 0 means one per CPU.
	Workers int
	// Scenario is the workload; required.
	Scenario Scenario
	// BatteryCapacity overrides the profile battery on every device
	// (and any Provisioner draw).
	BatteryCapacity units.Energy
	// Mode selects how every device's simulation advances time
	// (kernel.Mode; default ClosedForm). Reports are canonically
	// byte-identical in every mode; PerBatch and FixedTick exist as the
	// references the closed-form path is checked against.
	Mode kernel.Mode
	// KeepResults retains the per-device result array on the Report.
	// Off (the default) the run streams each DeviceResult into the
	// aggregate and drops it, so fleet memory stays O(workers + buckets)
	// regardless of size. Turn it on for per-device output.
	KeepResults bool

	// PerDevice, when set, streams every completed device's result out
	// of the reduction frontier, in strict device-index order, without
	// retaining anything — the O(workers) alternative to KeepResults
	// that the cinder-fleet -per-device-out NDJSON emitter rides (and
	// KeepResults itself is implemented as one of these emitters). On
	// checkpointed runs results exist only at the final epoch, so the
	// emitter fires only on the final pass. A non-nil error aborts the
	// run.
	PerDevice func(DeviceResult) error

	// Progress, when set, is called from the reduction frontier as each
	// device completes a pass, and again when a checkpoint epoch is
	// published — the feed behind cinder-fleet's periodic stderr line,
	// runner heartbeats, and the coordinator's /status JSON. It runs on
	// the reducing goroutine, strictly ordered. A non-nil error aborts
	// the run promptly: in-flight devices finish, nothing new is
	// dispatched (how a runner abandons a shard whose lease was lost).
	Progress func(Progress) error

	// Warnf, when set, receives rare operator-facing warning lines —
	// resume salvage skipping or quarantining a damaged epoch file, for
	// example. Nil discards them; warnings never fail the run.
	Warnf func(format string, args ...any)

	// ShardIndex/ShardCount partition the device index range across
	// independent processes: shard i of n runs the contiguous range
	// [i·N/n, (i+1)·N/n). Zero ShardCount means unsharded. Sharded runs
	// go through RunShard, which emits a mergeable partial report.
	ShardIndex int
	ShardCount int

	// CheckpointDir, when set, makes the run interruptible: every
	// device's full state is snapshotted at each CheckpointEvery
	// boundary (default 24 h) into an epoch file, written in strict
	// device-index order. Resume restarts from the last complete epoch
	// instead of t = 0; the resumed run's report is byte-identical to an
	// uninterrupted one.
	CheckpointDir   string
	CheckpointEvery units.Time
	// Resume continues from the newest complete epoch file in
	// CheckpointDir (an error if none matches this config). ResumeAuto
	// is the opportunistic form the coordinator uses when reassigning a
	// lost shard: resume if a matching epoch file exists, start from
	// t = 0 otherwise.
	Resume     bool
	ResumeAuto bool
}

// Progress is one update from a run's reduction frontier: how far the
// current pass has advanced and where the last resumable checkpoint
// sits. Consumers derive rates and ETAs from SimDone/SimTotal against
// their own wall clock — the fleet itself never looks at real time.
type Progress struct {
	// Lo/Hi bound the device index range of the running pass; Done
	// counts devices already reduced within it.
	Lo, Hi, Done int
	// Epoch/Epochs locate the current pass in the checkpoint plan
	// (epoch 0 of 1 for uncheckpointed runs).
	Epoch, Epochs int
	// PassStart/PassEnd are the simulated span each device covers this
	// pass; Horizon is the full per-device horizon.
	PassStart, PassEnd, Horizon units.Time
	// LastCheckpoint is the newest published epoch file's index, -1
	// before any. Checkpointed marks the update announcing an epoch
	// file publication (Done == Hi-Lo on those).
	LastCheckpoint int
	Checkpointed   bool
}

// SimDone is the simulated device-time completed so far: whole passes
// for every device in range plus the current pass's reduced devices.
// (Devices that died early are counted at the full horizon — their
// remaining time costs nothing to "simulate" — so ETAs stay sane.)
func (p Progress) SimDone() units.Time {
	return units.Time(p.Hi-p.Lo)*p.PassStart + units.Time(p.Done)*(p.PassEnd-p.PassStart)
}

// SimTotal is the simulated device-time the whole range covers.
func (p Progress) SimTotal() units.Time {
	return units.Time(p.Hi-p.Lo) * p.Horizon
}

// meter tracks a run's progress feed: per-device and per-checkpoint
// callbacks into Config.Progress, all from the reducing goroutine.
type meter struct {
	emit func(Progress) error
	cur  Progress
}

func newMeter(cfg *Config, lo, hi, epochs int) *meter {
	return &meter{
		emit: cfg.Progress,
		cur: Progress{
			Lo: lo, Hi: hi, Epochs: epochs,
			Horizon:        cfg.Duration,
			LastCheckpoint: -1,
		},
	}
}

// pass positions the meter at the start of epoch e covering simulated
// span [start, end) per device.
func (m *meter) pass(e int, start, end units.Time) {
	m.cur.Epoch, m.cur.PassStart, m.cur.PassEnd = e, start, end
	m.cur.Done = 0
	m.cur.Checkpointed = false
	if e > 0 {
		m.cur.LastCheckpoint = e - 1
	}
}

// device records one reduced device.
func (m *meter) device() error {
	m.cur.Done++
	m.cur.Checkpointed = false
	if m.emit == nil {
		return nil
	}
	return m.emit(m.cur)
}

// checkpoint records epoch e's file publication.
func (m *meter) checkpoint(e int) error {
	m.cur.LastCheckpoint = e
	m.cur.Checkpointed = true
	if m.emit == nil {
		return nil
	}
	return m.emit(m.cur)
}

// Report is the deterministic aggregate of a fleet run.
type Report struct {
	Scenario string
	Devices  int
	Seed     int64
	Duration units.Time
	Workers  int

	TotalConsumed units.Energy
	MeanConsumed  units.Energy
	MinConsumed   units.Energy
	MaxConsumed   units.Energy

	// TotalRecharged is external charger energy credited fleet-wide;
	// TotalReclaimed is hoarded energy the anti-hoarding decay pulled
	// back (both zero on scenarios without chargers / hoard probes).
	TotalRecharged units.Energy
	TotalReclaimed units.Energy

	// MeanUtilization is the fleet-wide CPU busy percentage:
	// 100·Σbusy/Σ(busy+idle) over all devices. The tick sums (not the
	// ratio) are what aggregation carries, so sharded runs merge
	// exactly.
	MeanUtilization float64

	TotalPolls       int64
	TotalActivations int64
	TotalPowerUps    int64

	// Dead counts devices whose battery ran out; LifeP50/LifeP90 are
	// nearest-rank percentiles of time-to-exhaustion across dead
	// devices (0 when none died), read from a mergeable log-linear
	// quantile sketch with ≤ 2⁻⁷ relative error — the report is exact
	// in counts and sums, approximate only in these two fields.
	Dead    int
	LifeP50 units.Time
	LifeP90 units.Time

	// Diag sums the engine diagnostics over the fleet (excluded from
	// CanonicalJSON). CI diffs them across worker counts and watches
	// them for busy-path perf regressions.
	Diag Diagnostics

	// Buckets break the fleet down per scenario bucket, sorted by
	// name. Single-scenario runs have exactly one bucket; Mix fleets
	// have one per entry that was assigned at least one device.
	Buckets []Bucket

	Results []DeviceResult
}

// Bucket is the aggregate over the devices assigned one scenario bucket
// of a (possibly mixed) fleet.
type Bucket struct {
	Name    string
	Devices int

	TotalConsumed units.Energy
	MeanConsumed  units.Energy

	// Recharged and Reclaimed are the bucket's charger credits and
	// anti-hoarding reclamation sums — the per-cohort split is what the
	// §5.2.2 containment measurement reads (hoarder bucket's Reclaimed
	// against victim bucket's LifeP50).
	Recharged units.Energy
	Reclaimed units.Energy

	MeanUtilization float64

	Polls       int64
	Pages       int64
	Activations int64
	PowerUps    int64
	SMSSent     int64
	Calls       int64

	// MeanSteps is the mean executed-instant count per device — the
	// per-bucket measure of how deeply the quiescence fast path was
	// engaged. MeanFlowWalks and MeanSettledBatches split the bucket's
	// tap batches into per-batch walks vs closed-form settlement.
	MeanSteps          uint64
	MeanFlowWalks      int64
	MeanSettledBatches int64
	MeanSettledSweeps  int64
	MeanSettledCharges int64

	Dead    int
	LifeP50 units.Time
	LifeP90 units.Time
}

// Format renders the report as a stable text block (the cinder-fleet
// CLI's output). It deliberately omits the resolved worker count —
// everything printed here is byte-identical for a fixed (seed, devices,
// scenario, duration) regardless of parallelism, which the package
// tests assert.
func (r Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d devices × %v, scenario %q, seed %d\n",
		r.Devices, r.Duration, r.Scenario, r.Seed)
	fmt.Fprintf(&b, "  consumed: total %v, mean %v, min %v, max %v\n",
		r.TotalConsumed, r.MeanConsumed, r.MinConsumed, r.MaxConsumed)
	if r.TotalRecharged > 0 || r.TotalReclaimed > 0 {
		fmt.Fprintf(&b, "  recharged: total %v, hoard reclaimed: %v\n",
			r.TotalRecharged, r.TotalReclaimed)
	}
	fmt.Fprintf(&b, "  cpu utilization: mean %.3f%%\n", r.MeanUtilization)
	fmt.Fprintf(&b, "  polls: %d, radio activations: %d, netd power-ups: %d\n",
		r.TotalPolls, r.TotalActivations, r.TotalPowerUps)
	if r.Dead > 0 {
		fmt.Fprintf(&b, "  battery deaths: %d/%d, life p50 %v, p90 %v\n",
			r.Dead, r.Devices, r.LifeP50, r.LifeP90)
	} else {
		fmt.Fprintf(&b, "  battery deaths: 0/%d\n", r.Devices)
	}
	if len(r.Buckets) > 1 {
		b.WriteString("  mix buckets:\n")
		for _, bk := range r.Buckets {
			fmt.Fprintf(&b, "    %-14s %4d devices, mean %v, polls %d, pages %d, sms %d, calls %d, deaths %d",
				bk.Name, bk.Devices, bk.MeanConsumed, bk.Polls, bk.Pages, bk.SMSSent, bk.Calls, bk.Dead)
			if bk.Dead > 0 {
				fmt.Fprintf(&b, " (life p50 %v, p90 %v)", bk.LifeP50, bk.LifeP90)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// reportJSON is the stable wire form of a Report. It deliberately
// excludes the resolved worker count and anything wall-clock-derived:
// for a fixed (seed, devices, scenario, duration) the marshalled bytes
// are identical regardless of parallelism — and regardless of shard
// count, which -merge relies on. Energies are microjoules, times
// milliseconds (the package's native units). docs/fleet-report.md
// documents every field.
type reportJSON struct {
	Scenario   string `json:"scenario"`
	Devices    int    `json:"devices"`
	Seed       int64  `json:"seed"`
	DurationMS int64  `json:"duration_ms"`

	TotalConsumedUJ int64   `json:"total_consumed_uj"`
	MeanConsumedUJ  int64   `json:"mean_consumed_uj"`
	MinConsumedUJ   int64   `json:"min_consumed_uj"`
	MaxConsumedUJ   int64   `json:"max_consumed_uj"`
	RechargedUJ     int64   `json:"recharged_uj,omitempty"`
	ReclaimedUJ     int64   `json:"reclaimed_uj,omitempty"`
	MeanUtilization float64 `json:"mean_utilization_pct"`

	Polls       int64 `json:"polls"`
	Activations int64 `json:"radio_activations"`
	PowerUps    int64 `json:"netd_power_ups"`

	Dead      int   `json:"dead"`
	LifeP50MS int64 `json:"life_p50_ms"`
	LifeP90MS int64 `json:"life_p90_ms"`

	Diagnostics

	Buckets []bucketJSON `json:"buckets"`
	Results []deviceJSON `json:"results,omitempty"`
}

type bucketJSON struct {
	Name               string  `json:"name"`
	Devices            int     `json:"devices"`
	TotalConsumedUJ    int64   `json:"total_consumed_uj"`
	MeanConsumedUJ     int64   `json:"mean_consumed_uj"`
	RechargedUJ        int64   `json:"recharged_uj,omitempty"`
	ReclaimedUJ        int64   `json:"reclaimed_uj,omitempty"`
	MeanUtilization    float64 `json:"mean_utilization_pct"`
	Polls              int64   `json:"polls"`
	Pages              int64   `json:"pages"`
	Activations        int64   `json:"radio_activations"`
	PowerUps           int64   `json:"netd_power_ups"`
	SMSSent            int64   `json:"sms_sent"`
	Calls              int64   `json:"calls_placed"`
	MeanSteps          uint64  `json:"mean_engine_steps"`
	MeanFlowWalks      int64   `json:"mean_flow_walks"`
	MeanSettled        int64   `json:"mean_settled_batches"`
	MeanSettledSweeps  int64   `json:"mean_settled_sweeps"`
	MeanSettledCharges int64   `json:"mean_settled_charges,omitempty"`
	Dead               int     `json:"dead"`
	LifeP50MS          int64   `json:"life_p50_ms"`
	LifeP90MS          int64   `json:"life_p90_ms"`
}

type deviceJSON struct {
	Index         int     `json:"index"`
	Seed          int64   `json:"seed"`
	Scenario      string  `json:"scenario"`
	ConsumedUJ    int64   `json:"consumed_uj"`
	BatteryLeftUJ int64   `json:"battery_left_uj"`
	RechargedUJ   int64   `json:"recharged_uj,omitempty"`
	ReclaimedUJ   int64   `json:"reclaimed_uj,omitempty"`
	Died          bool    `json:"died"`
	DiedAtMS      int64   `json:"died_at_ms,omitempty"`
	Utilization   float64 `json:"utilization_pct"`
	Activations   int64   `json:"radio_activations"`
	Polls         int64   `json:"polls"`
	Pages         int64   `json:"pages"`
	PowerUps      int64   `json:"netd_power_ups"`
	SMSSent       int64   `json:"sms_sent"`
	Calls         int64   `json:"calls_placed"`
	Diagnostics
}

// JSON renders the report as deterministic, worker-count-independent
// indented JSON. perDevice includes the per-device result array.
func (r Report) JSON(perDevice bool) ([]byte, error) {
	return r.marshalJSON(perDevice, false)
}

// CanonicalJSON renders the report with every engine-level diagnostic
// (executed instants, flow walks, settled batches) zeroed: the bytes
// that must be identical across engine and settlement modes — and
// across checkpointed, resumed, sharded and merged runs — which the
// invariance suites assert. Everything energy- or workload-shaped —
// consumption, lifetimes, utilization, polls, pages, SMS, calls —
// stays.
func (r Report) CanonicalJSON(perDevice bool) ([]byte, error) {
	return r.marshalJSON(perDevice, true)
}

func (r Report) marshalJSON(perDevice, canonical bool) ([]byte, error) {
	out := reportJSON{
		Scenario:        r.Scenario,
		Devices:         r.Devices,
		Seed:            r.Seed,
		DurationMS:      int64(r.Duration),
		TotalConsumedUJ: int64(r.TotalConsumed),
		MeanConsumedUJ:  int64(r.MeanConsumed),
		MinConsumedUJ:   int64(r.MinConsumed),
		MaxConsumedUJ:   int64(r.MaxConsumed),
		RechargedUJ:     int64(r.TotalRecharged),
		ReclaimedUJ:     int64(r.TotalReclaimed),
		MeanUtilization: r.MeanUtilization,
		Polls:           r.TotalPolls,
		Activations:     r.TotalActivations,
		PowerUps:        r.TotalPowerUps,
		Dead:            r.Dead,
		LifeP50MS:       int64(r.LifeP50),
		LifeP90MS:       int64(r.LifeP90),
	}
	if !canonical {
		out.Diagnostics = r.Diag
	}
	for _, b := range r.Buckets {
		bj := bucketJSON{
			Name:            b.Name,
			Devices:         b.Devices,
			TotalConsumedUJ: int64(b.TotalConsumed),
			MeanConsumedUJ:  int64(b.MeanConsumed),
			RechargedUJ:     int64(b.Recharged),
			ReclaimedUJ:     int64(b.Reclaimed),
			MeanUtilization: b.MeanUtilization,
			Polls:           b.Polls,
			Pages:           b.Pages,
			Activations:     b.Activations,
			PowerUps:        b.PowerUps,
			SMSSent:         b.SMSSent,
			Calls:           b.Calls,
			Dead:            b.Dead,
			LifeP50MS:       int64(b.LifeP50),
			LifeP90MS:       int64(b.LifeP90),
		}
		if !canonical {
			bj.MeanSteps = b.MeanSteps
			bj.MeanFlowWalks = b.MeanFlowWalks
			bj.MeanSettled = b.MeanSettledBatches
			bj.MeanSettledSweeps = b.MeanSettledSweeps
			bj.MeanSettledCharges = b.MeanSettledCharges
		}
		out.Buckets = append(out.Buckets, bj)
	}
	if perDevice {
		for _, d := range r.Results {
			out.Results = append(out.Results, deviceWire(d, canonical))
		}
	}
	return json.MarshalIndent(out, "", "  ")
}

// deviceWire converts one device result to its stable wire form — the
// entries of the report's results array, and the records the NDJSON
// emitter streams.
func deviceWire(d DeviceResult, canonical bool) deviceJSON {
	dj := deviceJSON{
		Index:         d.Index,
		Seed:          d.Seed,
		Scenario:      d.Scenario,
		ConsumedUJ:    int64(d.Consumed),
		BatteryLeftUJ: int64(d.BatteryLeft),
		RechargedUJ:   int64(d.Recharged),
		ReclaimedUJ:   int64(d.Reclaimed),
		Died:          d.Died,
		DiedAtMS:      int64(d.DiedAt),
		Utilization:   d.Utilization,
		Activations:   d.RadioActivations,
		Polls:         d.Polls,
		Pages:         d.Pages,
		PowerUps:      d.PowerUps,
		SMSSent:       d.SMSSent,
		Calls:         d.CallsPlaced,
	}
	if !canonical {
		dj.Diagnostics = d.Diag
	}
	return dj
}

// NDJSON renders the result as one compact JSON line (no trailing
// newline), the per-device streaming form: the same schema as the
// report's results array, so a file of these lines is the results
// array unrolled. canonical zeroes the engine diagnostics exactly as
// Report.CanonicalJSON does.
func (d DeviceResult) NDJSON(canonical bool) ([]byte, error) {
	return json.Marshal(deviceWire(d, canonical))
}

// warnf emits an operator-facing warning line (discarded when no
// Warnf sink is wired).
func (cfg *Config) warnf(format string, args ...any) {
	if cfg.Warnf != nil {
		cfg.Warnf(format, args...)
	}
}

// validate normalizes and checks a config, returning the resolved
// worker count.
func (cfg *Config) validate() (workers int, err error) {
	if cfg.Devices <= 0 {
		return 0, fmt.Errorf("fleet: need at least 1 device, got %d", cfg.Devices)
	}
	if cfg.Scenario == nil {
		return 0, fmt.Errorf("fleet: nil scenario")
	}
	if cfg.Duration <= 0 {
		return 0, fmt.Errorf("fleet: non-positive duration %v", cfg.Duration)
	}
	if !cfg.Mode.Valid() {
		return 0, fmt.Errorf("fleet: invalid mode %v", cfg.Mode)
	}
	if cfg.ShardCount < 0 || (cfg.ShardCount > 0 && (cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.ShardCount)) {
		return 0, fmt.Errorf("fleet: shard %d of %d out of range", cfg.ShardIndex, cfg.ShardCount)
	}
	if cfg.ShardCount > cfg.Devices {
		return 0, fmt.Errorf("fleet: %d shards over %d devices", cfg.ShardCount, cfg.Devices)
	}
	if cfg.ShardCount > 0 && cfg.KeepResults {
		return 0, fmt.Errorf("fleet: per-device results are not supported on sharded runs")
	}
	if cfg.Resume && cfg.CheckpointDir == "" {
		return 0, fmt.Errorf("fleet: -resume needs a checkpoint dir")
	}
	workers = cfg.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	return workers, nil
}

// shardRange returns the contiguous device index range this config
// covers: the whole fleet when unsharded, shard i's slice otherwise.
func (cfg Config) shardRange() (lo, hi int) {
	if cfg.ShardCount <= 0 {
		return 0, cfg.Devices
	}
	lo = cfg.ShardIndex * cfg.Devices / cfg.ShardCount
	hi = (cfg.ShardIndex + 1) * cfg.Devices / cfg.ShardCount
	return lo, hi
}

// Run simulates the fleet and returns the aggregate report. With
// Config.CheckpointDir set the run proceeds epoch by epoch, writing a
// resumable snapshot of every device at each boundary (checkpoint.go);
// otherwise the plan is a single epoch covering the whole horizon.
//
// Devices are dispatched to the worker pool through a bounded admission
// window and their results are reduced strictly in index order as they
// stream back, so the run never holds more than O(workers) in-flight
// results plus O(buckets) aggregate state — per-device results are
// dropped after reduction unless cfg.KeepResults asks for them.
func Run(cfg Config) (Report, error) {
	workers, err := cfg.validate()
	if err != nil {
		return Report{}, err
	}
	if cfg.ShardCount > 0 {
		return Report{}, fmt.Errorf("fleet: sharded configs run through RunShard")
	}
	var results []DeviceResult
	if cfg.KeepResults {
		// Result retention is itself a PerDevice emitter: the run
		// streams either way, and the array exists only here.
		user := cfg.PerDevice
		cfg.PerDevice = func(r DeviceResult) error {
			results = append(results, r)
			if user != nil {
				return user(r)
			}
			return nil
		}
	}
	agg := aggregate{}
	if err := runEpochs(cfg, workers, agg); err != nil {
		return Report{}, err
	}
	rep := agg.finish(cfg, workers)
	rep.Results = results
	return rep, nil
}

// accept folds one final device result into the aggregate and streams
// it to the PerDevice emitter.
func accept(cfg *Config, agg aggregate, res DeviceResult) error {
	agg.add(res)
	if cfg.PerDevice == nil {
		return nil
	}
	return cfg.PerDevice(res)
}

// outcome is one device's product from a pass: a final result, or (on
// checkpointing passes) a snapshot-or-result blob, classified by kind,
// to carry into the next epoch. The result travels by pointer (the one
// buildDevice allocated for the battery watch) to keep the ring slots
// and the device path's stack frames small.
type outcome struct {
	res  *DeviceResult
	blob []byte
	kind int
	err  error
}

// pass runs device indexes [lo, hi) through the worker pool. feed, when
// non-nil, supplies each device's input blob and is called from the
// dispatch side strictly in index order (so it can stream a file);
// reduce is called strictly in index order as results stream back.
//
// The admission window bounds how far any device index may run ahead of
// the reduction frontier, which in turn bounds the reorder ring: index
// i is dispatched only once the frontier has passed i−window, so at
// most `window` results are ever buffered and the result channel can
// never fill with the frontier index still outstanding (the no-deadlock
// argument).
func pass(cfg Config, workers, lo, hi int,
	feed func(idx int) ([]byte, error),
	work func(idx int, in []byte, rg *rig) outcome,
	reduce func(idx int, o outcome) error) error {

	n := hi - lo
	if n <= 0 {
		return fmt.Errorf("fleet: empty device range [%d,%d)", lo, hi)
	}
	if workers > n {
		workers = n
	}
	window := 4 * workers
	if window > n {
		window = n
	}
	type slot struct {
		in   []byte
		out  outcome
		done bool
	}
	ring := make([]slot, window)
	indexCh := make(chan int, window)
	resultCh := make(chan int, window)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rg rig
			for i := range indexCh {
				// The ring slot for index i is owned by this worker
				// until the reducer receives i; the channel send is the
				// happens-before edge.
				s := &ring[(i-lo)%window]
				s.out = work(i, s.in, &rg)
				resultCh <- i
			}
		}()
	}

	var feedErr error
	dispatch := func(i int) bool {
		s := &ring[(i-lo)%window]
		s.in = nil
		if feed != nil && feedErr == nil {
			s.in, feedErr = feed(i)
			if feedErr != nil {
				// Dispatch anyway with nil input; the worker result is
				// discarded once firstErr is set below.
				s.in = nil
			}
		}
		indexCh <- i
		return true
	}

	dispatched := lo
	for ; dispatched < lo+window; dispatched++ {
		dispatch(dispatched)
	}
	closed := false
	closeIndex := func() {
		if !closed {
			closed = true
			close(indexCh)
		}
	}
	if dispatched == hi {
		closeIndex()
	}

	// The reduction loop drains every dispatched index, but once an
	// error (a failed device, a failed reduce, or an aborting Progress
	// callback) is recorded it stops dispatching new work, so an abort
	// costs at most the in-flight window rather than the whole range.
	var firstErr error
	if feedErr != nil {
		firstErr = feedErr
	}
	for frontier := lo; frontier < dispatched; {
		i := <-resultCh
		ring[(i-lo)%window].done = true
		for frontier < dispatched && ring[(frontier-lo)%window].done {
			s := &ring[(frontier-lo)%window]
			if firstErr == nil && feedErr != nil {
				firstErr = feedErr
			}
			if s.out.err != nil && firstErr == nil {
				firstErr = fmt.Errorf("fleet: device %d: %w", frontier, s.out.err)
			} else if firstErr == nil {
				if err := reduce(frontier, s.out); err != nil {
					firstErr = err
				}
			}
			*s = slot{}
			frontier++
			if dispatched < hi && firstErr == nil {
				dispatch(dispatched)
				dispatched++
			}
			if dispatched == hi || firstErr != nil {
				closeIndex()
			}
		}
	}
	closeIndex()
	wg.Wait()
	return firstErr
}

// rig is one worker's recyclable device machinery: the kernel (engine,
// object table, graph, scheduler), radio and netd are Reset in place
// for each device instead of constructed fresh, so a million-device run
// builds only O(workers) object graphs. The per-device Smdd is not
// recycled — it exists only on devices whose scenario asks for it.
type rig struct {
	k   *kernel.Kernel
	r   *radio.Radio
	n   *netd.Netd
	dev *Device
}

// reset puts the rig's machinery through the one construction sequence
// every device goes through, the first included: kernel, then radio
// (and its funding reserve), then netd. A zero rig allocates its
// machinery here on first use — after the first device's provisioning,
// so a worker's start-up stays cheap — and nothing the allocation
// leaves behind survives the Reset calls.
func (rg *rig) reset(kcfg kernel.Config) error {
	if rg.k == nil {
		k := kernel.New(kernel.Config{})
		*rg = rig{
			k:   k,
			r:   radio.New(k.Eng, k.Graph, k.Root, k.KernelPriv(), radio.Config{Profile: k.Profile}),
			n:   new(netd.Netd),
			dev: new(Device),
		}
	}
	k := rg.k
	k.Reset(kcfg)
	rg.r.Reset(k.Eng, k.Graph, k.Root, k.KernelPriv(), radio.Config{Profile: k.Profile})
	k.AddDevice(rg.r)
	return rg.n.Reset(k, rg.r, netd.Config{Cooperative: true, QuiescentSweep: true, NoPoolTrace: true})
}

// buildDevice assembles one fleet member — reset rig machinery, the
// scenario's workloads, and the battery watch — leaving it ready to
// run (or to overlay a checkpoint snapshot). The returned DeviceResult
// is wired into the battery watch; extractResult completes it after
// the simulation.
//
// Every device goes through the same rig.reset sequence, so object
// IDs, seeds and every downstream result depend only on the device,
// never on what the rig simulated before; the recycling-equivalence
// test asserts it against a fresh rig per device.
func buildDevice(cfg Config, idx int, rg *rig) (*Device, *DeviceResult, error) {
	seed := DeriveSeed(cfg.Seed, idx)
	kcfg := kernel.Config{
		Seed:            seed,
		BatteryCapacity: cfg.BatteryCapacity,
		Mode:            cfg.Mode,
	}
	if p, ok := cfg.Scenario.(Provisioner); ok {
		prov := p.Provision(idx, seed)
		if prov.BatteryCapacity != 0 {
			if cfg.BatteryCapacity != 0 {
				return nil, nil, fmt.Errorf("fleet: scenario %q provisions per-device batteries; "+
					"the fleet-level battery override (-battery-j / battery-j sweeps) contradicts it — drop one",
					cfg.Scenario.Name())
			}
			kcfg.BatteryCapacity = prov.BatteryCapacity
		}
		if prov.Profile.Name != "" {
			kcfg.Profile = prov.Profile
		}
		kcfg.StrictHoarding = prov.StrictHoarding
	}
	if err := rg.reset(kcfg); err != nil {
		return nil, nil, err
	}
	k := rg.k

	d := rg.dev
	clear(d.Probes)
	probes := d.Probes[:0]
	clear(d.Hooks)
	hooks := d.Hooks[:0]
	rand := d.Rand
	if rand == nil {
		rand = newSplitmix(seed)
	} else {
		rand.state = uint64(seed)
	}
	*d = Device{
		Index:    idx,
		Seed:     seed,
		Rand:     rand,
		Kernel:   k,
		Radio:    rg.r,
		Netd:     rg.n,
		Scenario: cfg.Scenario.Name(),
		Probes:   probes,
		Hooks:    hooks,
	}
	if err := cfg.Scenario.Build(d); err != nil {
		return nil, nil, err
	}

	res := &DeviceResult{Index: idx, Seed: seed}
	// Outside ClosedForm the watch polls the battery every
	// DefaultLifeResolution.
	dense := k.Mode() != kernel.ClosedForm
	var watch *sim.Task
	watch = k.Eng.Every("fleet:battery-watch", DefaultLifeResolution, func(e *sim.Engine) {
		if !res.Died && k.BatteryExhaustedFor(DefaultLifeResolution) {
			res.Died = true
			res.DiedAt = e.Now()
			e.Stop() // dead device: nothing left to measure
			return
		}
		if dense {
			return
		}
		// While the device is provably quiescent, skip ahead: the kernel
		// bounds how far the battery could possibly drain, and the
		// deferral lands the next check at the exact grid instant dense
		// polling would first have detected anything.
		if h := k.WatchHorizon(watch); h > e.Now() {
			watch.DeferUntil(h)
		}
	})
	return d, res, nil
}

// extractResult reads the simulated device back into its result.
func extractResult(d *Device, res *DeviceResult) {
	k := d.Kernel
	res.Scenario = d.Scenario
	res.Consumed = k.Consumed()
	if lvl, err := k.Battery().Level(k.KernelPriv()); err == nil {
		res.BatteryLeft = lvl
	}
	res.Utilization = k.Sched.Utilization()
	res.BusyTicks = k.Sched.BusyTicks()
	res.IdleTicks = k.Sched.IdleTicks()
	res.RadioActivations = d.Radio.Stats().Activations
	res.PowerUps = d.Netd.Stats().PowerUps
	res.Diag = Diagnostics{
		EngineSteps:    k.Eng.Steps(),
		FlowWalks:      k.Graph.FlowWalks(),
		SettledBatches: k.Graph.SettledBatches(),
		SettledSweeps:  d.Netd.Stats().SettledSweeps,
	}
	if c := k.Charger(); c != nil {
		cs := c.Stats()
		res.Recharged = cs.Recharged
		res.Diag.SettledCharges = cs.SettledCharges
	}
	if d.Smdd != nil {
		s := d.Smdd.Stats()
		res.SMSSent = s.SMSSent
		res.CallsPlaced = s.CallsPlaced
	}
	for _, p := range d.Probes {
		p(res)
	}
}

// aggregate is the mergeable core of a Report: one tally per scenario
// bucket, keyed by bucket name. The fleet-wide figures are the merge of
// the bucket tallies (finish), so no second copy of the totals exists
// to disagree with the buckets.
type aggregate map[string]*tally

// tally is one bucket's mergeable aggregate: integer sums, min/max
// consumption, diagnostics, deaths and the life-percentile sketch — no
// retained per-device arrays, and no floats until finish. Every field
// is an integer sum, a min/max or a sketch merge, all associative, so
// any grouping of devices (shards, buckets) merges into the identical
// tally. The exported fields are the partial report's bucket wire form.
type tally struct {
	Devices     int          `json:"devices"`
	Consumed    units.Energy `json:"total_consumed_uj"`
	MinConsumed units.Energy `json:"min_consumed_uj"`
	MaxConsumed units.Energy `json:"max_consumed_uj"`
	BusyTicks   int64        `json:"busy_ticks"`
	IdleTicks   int64        `json:"idle_ticks"`
	Polls       int64        `json:"polls"`
	Pages       int64        `json:"pages"`
	Activations int64        `json:"radio_activations"`
	PowerUps    int64        `json:"netd_power_ups"`
	SMSSent     int64        `json:"sms_sent"`
	Calls       int64        `json:"calls_placed"`
	Diagnostics
	Recharged units.Energy `json:"recharged_uj,omitempty"`
	Reclaimed units.Energy `json:"reclaimed_uj,omitempty"`
	Dead      int          `json:"dead"`
	lives     sketch.Hist
}

// add folds one device's result into the tally.
func (t *tally) add(r DeviceResult) {
	if t.Devices == 0 || r.Consumed < t.MinConsumed {
		t.MinConsumed = r.Consumed
	}
	if r.Consumed > t.MaxConsumed {
		t.MaxConsumed = r.Consumed
	}
	t.Devices++
	t.Consumed += r.Consumed
	t.BusyTicks += r.BusyTicks
	t.IdleTicks += r.IdleTicks
	t.Polls += r.Polls
	t.Pages += r.Pages
	t.Activations += r.RadioActivations
	t.PowerUps += r.PowerUps
	t.SMSSent += r.SMSSent
	t.Calls += r.CallsPlaced
	t.Diagnostics.add(r.Diag)
	t.Recharged += r.Recharged
	t.Reclaimed += r.Reclaimed
	if r.Died {
		t.Dead++
		t.lives.Add(int64(r.DiedAt))
	}
}

// merge folds another tally into this one.
func (t *tally) merge(o *tally) {
	if o.Devices > 0 && (t.Devices == 0 || o.MinConsumed < t.MinConsumed) {
		t.MinConsumed = o.MinConsumed
	}
	if o.MaxConsumed > t.MaxConsumed {
		t.MaxConsumed = o.MaxConsumed
	}
	t.Devices += o.Devices
	t.Consumed += o.Consumed
	t.BusyTicks += o.BusyTicks
	t.IdleTicks += o.IdleTicks
	t.Polls += o.Polls
	t.Pages += o.Pages
	t.Activations += o.Activations
	t.PowerUps += o.PowerUps
	t.SMSSent += o.SMSSent
	t.Calls += o.Calls
	t.Diagnostics.add(o.Diagnostics)
	t.Recharged += o.Recharged
	t.Reclaimed += o.Reclaimed
	t.Dead += o.Dead
	t.lives.Merge(&o.lives)
}

// lifePercentiles reads p50/p90 time-to-exhaustion off the sketch (zero
// when nothing died).
func (t *tally) lifePercentiles() (p50, p90 units.Time) {
	if t.Dead == 0 {
		return 0, 0
	}
	return units.Time(t.lives.Quantile(50)), units.Time(t.lives.Quantile(90))
}

// bucket returns the named bucket's tally, creating it on first use.
func (a aggregate) bucket(name string) *tally {
	t := a[name]
	if t == nil {
		t = &tally{}
		a[name] = t
	}
	return t
}

// add folds one device's result into its bucket's tally.
func (a aggregate) add(r DeviceResult) { a.bucket(r.Scenario).add(r) }

// merge folds another aggregate into this one, bucket by bucket.
func (a aggregate) merge(o aggregate) {
	for name, t := range o {
		a.bucket(name).merge(t)
	}
}

// names returns the bucket names in sorted (report) order.
func (a aggregate) names() []string {
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// utilizationPct converts tick sums to the busy percentage.
func utilizationPct(busy, idle int64) float64 {
	total := busy + idle
	if total == 0 {
		return 0
	}
	return 100 * float64(busy) / float64(total)
}

// finish computes means, percentiles and the sorted bucket list; the
// fleet-wide figures are the merge of every bucket's tally.
func (a aggregate) finish(cfg Config, workers int) Report {
	names := a.names()
	rep := Report{
		Scenario: cfg.Scenario.Name(),
		Devices:  cfg.Devices,
		Seed:     cfg.Seed,
		Duration: cfg.Duration,
		Workers:  workers,
		Buckets:  make([]Bucket, 0, len(names)),
	}
	var fleet tally
	for _, n := range names {
		t := a[n]
		fleet.merge(t)
		bk := Bucket{
			Name:               n,
			Devices:            t.Devices,
			TotalConsumed:      t.Consumed,
			MeanConsumed:       t.Consumed / units.Energy(t.Devices),
			Recharged:          t.Recharged,
			Reclaimed:          t.Reclaimed,
			MeanUtilization:    utilizationPct(t.BusyTicks, t.IdleTicks),
			Polls:              t.Polls,
			Pages:              t.Pages,
			Activations:        t.Activations,
			PowerUps:           t.PowerUps,
			SMSSent:            t.SMSSent,
			Calls:              t.Calls,
			MeanSteps:          t.EngineSteps / uint64(t.Devices),
			MeanFlowWalks:      t.FlowWalks / int64(t.Devices),
			MeanSettledBatches: t.SettledBatches / int64(t.Devices),
			MeanSettledSweeps:  t.SettledSweeps / int64(t.Devices),
			MeanSettledCharges: t.SettledCharges / int64(t.Devices),
			Dead:               t.Dead,
		}
		bk.LifeP50, bk.LifeP90 = t.lifePercentiles()
		rep.Buckets = append(rep.Buckets, bk)
	}
	rep.TotalConsumed = fleet.Consumed
	rep.MeanConsumed = fleet.Consumed / units.Energy(rep.Devices)
	rep.MinConsumed = fleet.MinConsumed
	rep.MaxConsumed = fleet.MaxConsumed
	rep.TotalRecharged = fleet.Recharged
	rep.TotalReclaimed = fleet.Reclaimed
	rep.MeanUtilization = utilizationPct(fleet.BusyTicks, fleet.IdleTicks)
	rep.TotalPolls = fleet.Polls
	rep.TotalActivations = fleet.Activations
	rep.TotalPowerUps = fleet.PowerUps
	rep.Diag = fleet.Diagnostics
	rep.Dead = fleet.Dead
	rep.LifeP50, rep.LifeP90 = fleet.lifePercentiles()
	return rep
}

// DeriveSeed maps (fleet seed, device index) to a device RNG seed via
// splitmix64, the standard seed-sequencing finalizer: consecutive
// indices land far apart in the stream.
func DeriveSeed(fleetSeed int64, idx int) int64 {
	s := splitmix{state: uint64(fleetSeed) + uint64(idx)*0x9E3779B97F4A7C15}
	return int64(s.Next())
}

// splitmix is a tiny deterministic stream for scenario construction.
type splitmix struct{ state uint64 }

func newSplitmix(seed int64) *splitmix { return &splitmix{state: uint64(seed)} }

// Next returns the next 64-bit value in the stream.
func (s *splitmix) Next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	x := s.state
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Intn returns a deterministic value in [0, n).
func (s *splitmix) Intn(n int64) int64 {
	if n <= 0 {
		panic("fleet: Intn on non-positive bound")
	}
	return int64(s.Next() % uint64(n))
}
