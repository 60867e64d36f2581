package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/units"
)

// This file is the job layer of the fleet: the immutable, wire-
// serializable spec of a run (Job) and the unit of distributed work
// (ShardRun). The layering follows rdsys's core/delivery split — the
// Job and the mergeable Partial are the in-memory model, and any
// process that can execute a ShardRun and hand back its Partial is a
// valid runner, whether it lives on the other side of a channel, an
// HTTP connection, or inside this very process. A single-process
// fleet.Run is the degenerate one-runner case: one ShardRun covering
// the whole device range, reduced through exactly the same code path
// (internal/coord asserts the byte identity).

// Job is the immutable spec of a fleet run: scenario, population,
// horizon, seed, and the shard plan. It is what a coordinator accepts,
// what crosses the delivery wire, and what every shard of a run must
// agree on — the same identity fields Partial carries and Merge
// checks. The scenario travels by registry name (Scenarios()); tests
// that need a non-registry scenario attach one with NewJob, but such
// jobs cannot cross a process boundary.
type Job struct {
	// Scenario is the workload's registry name.
	Scenario string `json:"scenario"`
	// Devices is the fleet size; Seed the fleet master seed; DurationMS
	// the per-device horizon in milliseconds.
	Devices    int   `json:"devices"`
	Seed       int64 `json:"seed"`
	DurationMS int64 `json:"duration_ms"`
	// Shards is the shard plan: the device index range is partitioned
	// into this many contiguous ShardRun units (1 = the degenerate
	// single-runner job).
	Shards int `json:"shards"`

	// BatteryUJ overrides the profile battery (0 = profile default).
	BatteryUJ int64 `json:"battery_uj,omitempty"`

	// Mode pins the simulation mode, so every runner of a job
	// simulates identically (Partial records it and Merge verifies it).
	// It travels by name; the zero value, closed-form, is omitted.
	Mode kernel.Mode `json:"mode,omitempty"`

	// CheckpointDir, when set, makes every ShardRun interruptible: epoch
	// files land there (per-shard names), and a reassigned shard resumes
	// from the newest complete epoch instead of t = 0 — runner loss
	// costs at most one checkpoint interval of re-simulation. Runners
	// must share the directory (same machine or shared filesystem).
	CheckpointDir     string `json:"checkpoint_dir,omitempty"`
	CheckpointEveryMS int64  `json:"checkpoint_every_ms,omitempty"`

	// scenario is an in-process override for non-registry scenarios
	// (NewJob captures it). It does not cross the wire: a marshalled
	// job resolves by name only.
	scenario Scenario
}

// NewJob derives a job spec from a run config and a shard plan,
// capturing cfg.Scenario so non-registry scenarios work in-process.
func NewJob(cfg Config, shards int) (Job, error) {
	if cfg.Scenario == nil {
		return Job{}, fmt.Errorf("fleet: job needs a scenario")
	}
	j := Job{
		Scenario:          cfg.Scenario.Name(),
		Devices:           cfg.Devices,
		Seed:              cfg.Seed,
		DurationMS:        int64(cfg.Duration),
		Shards:            shards,
		BatteryUJ:         int64(cfg.BatteryCapacity),
		Mode:              cfg.Mode,
		CheckpointDir:     cfg.CheckpointDir,
		CheckpointEveryMS: int64(cfg.CheckpointEvery),
		scenario:          cfg.Scenario,
	}
	return j, j.Validate()
}

// ParseJob deserializes and validates a wire job. Unknown fields are
// an error, so a job naming a field this build dropped fails loudly
// instead of running with that field ignored.
func ParseJob(b []byte) (Job, error) {
	var j Job
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		return Job{}, fmt.Errorf("fleet: bad job: %w", err)
	}
	return j, j.Validate()
}

// Validate checks the spec: a resolvable scenario, a positive
// population and horizon, and a shard plan that partitions it.
func (j Job) Validate() error {
	if _, err := j.ResolveScenario(); err != nil {
		return err
	}
	if j.Devices <= 0 {
		return fmt.Errorf("fleet: job needs at least 1 device, got %d", j.Devices)
	}
	if j.DurationMS <= 0 {
		return fmt.Errorf("fleet: job has non-positive duration %d ms", j.DurationMS)
	}
	if j.Shards <= 0 || j.Shards > j.Devices {
		return fmt.Errorf("fleet: job shard plan %d over %d devices", j.Shards, j.Devices)
	}
	if !j.Mode.Valid() {
		return fmt.Errorf("fleet: job has invalid mode %v", j.Mode)
	}
	return nil
}

// ResolveScenario returns the job's workload: the in-process override
// when NewJob captured one, the registry entry otherwise.
func (j Job) ResolveScenario() (Scenario, error) {
	if j.scenario != nil {
		return j.scenario, nil
	}
	sc, ok := Scenarios()[j.Scenario]
	if !ok {
		return nil, fmt.Errorf("fleet: job references unknown scenario %q", j.Scenario)
	}
	return sc, nil
}

// Horizon is the per-device simulated duration.
func (j Job) Horizon() units.Time { return units.Time(j.DurationMS) }

// SimTotal is the job's total simulated device-time — the work measure
// behind device-days/s and ETA reporting.
func (j Job) SimTotal() units.Time { return units.Time(j.Devices) * j.Horizon() }

// ShardRange returns shard i's contiguous device index range.
func (j Job) ShardRange(i int) (lo, hi int) {
	cfg := Config{Devices: j.Devices, ShardIndex: i, ShardCount: j.Shards}
	return cfg.shardRange()
}

// ShardConfig materializes the run config for one shard of the plan.
func (j Job) ShardConfig(shard int) (Config, error) {
	if shard < 0 || shard >= j.Shards {
		return Config{}, fmt.Errorf("fleet: shard %d of %d out of range", shard, j.Shards)
	}
	sc, err := j.ResolveScenario()
	if err != nil {
		return Config{}, err
	}
	return Config{
		Devices:         j.Devices,
		Seed:            j.Seed,
		Duration:        units.Time(j.DurationMS),
		Scenario:        sc,
		BatteryCapacity: units.Energy(j.BatteryUJ),
		Mode:            j.Mode,
		ShardIndex:      shard,
		ShardCount:      j.Shards,
		CheckpointDir:   j.CheckpointDir,
		CheckpointEvery: units.Time(j.CheckpointEveryMS),
	}, nil
}

// ShardRun is the unit of distributed work: shard Shard of the job's
// plan. Its output is the mergeable Partial every delivery transport
// carries; Merge over a job's complete ShardRun outputs reproduces the
// single-process report byte for byte, regardless of which runners
// executed which shards, in what order, or how many times a shard was
// reassigned after a runner loss.
type ShardRun struct {
	Job   Job
	Shard int
	// Resume asks for an opportunistic resume: continue from the newest
	// complete epoch file in the job's checkpoint dir if one exists,
	// start from t = 0 otherwise. The coordinator sets it when
	// reassigning a shard whose runner was lost.
	Resume bool
	// Workers bounds the local worker pool (0 = one per CPU).
	Workers int
	// Progress and PerDevice stream out of the shard's admission window
	// (see Config); runners feed heartbeats and NDJSON emitters from
	// them.
	Progress  func(Progress) error
	PerDevice func(DeviceResult) error
	// Warnf receives rare warning lines (see Config.Warnf); runners wire
	// it to their log.
	Warnf func(format string, args ...any)
}

// Run executes the shard and returns its partial report.
func (s ShardRun) Run() (*Partial, error) {
	cfg, err := s.Job.ShardConfig(s.Shard)
	if err != nil {
		return nil, err
	}
	cfg.Workers = s.Workers
	cfg.ResumeAuto = s.Resume
	cfg.Progress = s.Progress
	cfg.PerDevice = s.PerDevice
	cfg.Warnf = s.Warnf
	return RunShard(cfg)
}

// Merge combines a complete set of shard partials under the job into
// the full fleet report (see the package-level Merge for the checks).
func (j Job) Merge(parts []*Partial) (Report, error) {
	sc, err := j.ResolveScenario()
	if err != nil {
		return Report{}, err
	}
	return Merge(parts, sc)
}
