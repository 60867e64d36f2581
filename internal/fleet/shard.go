package fleet

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/kernel"
	"repro/internal/sketch"
	"repro/internal/units"
)

// This file implements sharded fleet runs: `cinder-fleet -shard i/n`
// partitions the device index range deterministically into n contiguous
// slices, each shard simulates its slice independently (its own
// process, machine, or checkpoint directory) and emits a *partial*
// report — its bucket tallies in wire form: integer sums, counts,
// min/max, and the sparse form of the life-percentile quantile sketch.
// `-merge` combines the partials and produces the same canonical JSON a
// single-process run of the whole fleet emits, byte for byte, because
// every tally field is associative: sums and counts add, min/max
// compose, and the sketch merges by counter addition. Fleet totals are
// derived from the merged bucket tallies, never carried separately. No
// full-population array ever exists on any machine.

// PartialVersion is the partial-report schema version.
const PartialVersion = 3

// Partial is one shard's mergeable report.
type Partial struct {
	Format  string `json:"format"`
	Version int    `json:"version"`

	// Identity: every shard of a run must agree on these exactly.
	Scenario         string      `json:"scenario"`
	Devices          int         `json:"devices"`
	Seed             int64       `json:"seed"`
	DurationMS       int64       `json:"duration_ms"`
	BatteryUJ        int64       `json:"battery_uj"`
	Mode             kernel.Mode `json:"mode"`
	LifeResolutionMS int64       `json:"life_resolution_ms"`

	ShardIndex int `json:"shard_index"`
	ShardCount int `json:"shard_count"`
	RangeLo    int `json:"range_lo"`
	RangeHi    int `json:"range_hi"`

	Buckets []partialBucket `json:"buckets"`
}

// partialBucket is the wire form of one bucket's tally.
type partialBucket struct {
	Name string `json:"name"`
	tally
	Lives [][2]int64 `json:"lives,omitempty"`
}

// RunShard simulates one shard of the fleet (cfg.ShardIndex of
// cfg.ShardCount) and returns its mergeable partial report. Checkpoint
// options apply per shard: each shard keeps its own epoch files in the
// shared checkpoint directory.
func RunShard(cfg Config) (*Partial, error) {
	workers, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	if cfg.ShardCount <= 0 {
		return nil, fmt.Errorf("fleet: RunShard needs ShardCount > 0")
	}
	agg := aggregate{}
	if err := runRange(cfg, workers, agg); err != nil {
		return nil, err
	}
	return packPartial(cfg, agg), nil
}

// packPartial converts an aggregate into its wire form.
func packPartial(cfg Config, a aggregate) *Partial {
	lo, hi := cfg.shardRange()
	p := &Partial{
		Format:           "cinder-fleet-partial",
		Version:          PartialVersion,
		Scenario:         cfg.Scenario.Name(),
		Devices:          cfg.Devices,
		Seed:             cfg.Seed,
		DurationMS:       int64(cfg.Duration),
		BatteryUJ:        int64(cfg.BatteryCapacity),
		Mode:             cfg.Mode,
		LifeResolutionMS: int64(cfg.LifeResolution),
		ShardIndex:       cfg.ShardIndex,
		ShardCount:       cfg.ShardCount,
		RangeLo:          lo,
		RangeHi:          hi,
	}
	for _, n := range a.names() {
		t := a[n]
		p.Buckets = append(p.Buckets, partialBucket{Name: n, tally: *t, Lives: sparseLives(&t.lives)})
	}
	return p
}

// sparseLives serializes a sketch as (bucket index, count) pairs.
func sparseLives(h *sketch.Hist) [][2]int64 {
	var out [][2]int64
	h.Each(func(idx int, count uint64) {
		out = append(out, [2]int64{int64(idx), int64(count)})
	})
	return out
}

// JSON renders the partial as indented JSON.
func (p *Partial) JSON() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// ParsePartial deserializes and sanity-checks a partial report: the
// format and version, and that its bucket tallies unpack (see unpack).
func ParsePartial(b []byte) (*Partial, error) {
	var p Partial
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("fleet: bad partial report: %w", err)
	}
	if p.Format != "cinder-fleet-partial" {
		return nil, fmt.Errorf("fleet: not a partial report (format %q)", p.Format)
	}
	if p.Version != PartialVersion {
		return nil, fmt.Errorf("fleet: partial report v%d, this build reads v%d", p.Version, PartialVersion)
	}
	if _, err := p.unpack(); err != nil {
		return nil, err
	}
	return &p, nil
}

// unpack converts a partial's wire form back into an aggregate. A
// bucket listed twice, a bucket without devices, or bucket device
// counts that do not sum to the shard's range is a loud error: the
// merged report would otherwise disagree with itself.
func (p *Partial) unpack() (aggregate, error) {
	a := aggregate{}
	devices := 0
	for _, pb := range p.Buckets {
		switch {
		case a[pb.Name] != nil:
			return nil, fmt.Errorf("fleet: partial %d/%d lists bucket %q twice",
				p.ShardIndex, p.ShardCount, pb.Name)
		case pb.Devices <= 0:
			return nil, fmt.Errorf("fleet: partial %d/%d bucket %q holds %d devices",
				p.ShardIndex, p.ShardCount, pb.Name, pb.Devices)
		}
		t := pb.tally
		for _, pair := range pb.Lives {
			t.lives.AddBucket(int(pair[0]), uint64(pair[1]))
		}
		a[pb.Name] = &t
		devices += t.Devices
	}
	if devices != p.RangeHi-p.RangeLo {
		return nil, fmt.Errorf("fleet: partial %d/%d buckets hold %d devices for range [%d,%d)",
			p.ShardIndex, p.ShardCount, devices, p.RangeLo, p.RangeHi)
	}
	return a, nil
}

// Merge combines every shard's partial report into the full fleet
// Report. The partials must form an exact partition of the device range
// and agree on the run identity; any gap, overlap or mismatch is a loud
// error. The merged report's canonical JSON is byte-identical to a
// single-process run of the same config, which the shard invariance
// suite asserts.
func Merge(parts []*Partial, scenario Scenario) (Report, error) {
	if len(parts) == 0 {
		return Report{}, fmt.Errorf("fleet: merge of zero partials")
	}
	ref := parts[0]
	if scenario == nil || scenario.Name() != ref.Scenario {
		name := "<nil>"
		if scenario != nil {
			name = scenario.Name()
		}
		return Report{}, fmt.Errorf("fleet: merge scenario %q does not match partials' %q", name, ref.Scenario)
	}
	sorted := make([]*Partial, len(parts))
	copy(sorted, parts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].RangeLo < sorted[j].RangeLo })

	agg := aggregate{}
	covered := 0
	for _, p := range sorted {
		switch {
		case p.Scenario != ref.Scenario || p.Devices != ref.Devices || p.Seed != ref.Seed ||
			p.DurationMS != ref.DurationMS || p.BatteryUJ != ref.BatteryUJ ||
			p.Mode != ref.Mode || p.LifeResolutionMS != ref.LifeResolutionMS ||
			p.ShardCount != ref.ShardCount:
			return Report{}, fmt.Errorf("fleet: partial %d/%d does not match partial %d/%d: "+
				"shards must come from one identically configured run",
				p.ShardIndex, p.ShardCount, ref.ShardIndex, ref.ShardCount)
		case p.RangeLo != covered:
			return Report{}, fmt.Errorf("fleet: shard coverage gap or overlap at device %d (next shard starts at %d)",
				covered, p.RangeLo)
		}
		a, err := p.unpack()
		if err != nil {
			return Report{}, err
		}
		covered = p.RangeHi
		agg.merge(a)
	}
	if covered != ref.Devices {
		return Report{}, fmt.Errorf("fleet: shards cover %d of %d devices", covered, ref.Devices)
	}

	cfg := Config{
		Devices:         ref.Devices,
		Seed:            ref.Seed,
		Duration:        units.Time(ref.DurationMS),
		Scenario:        scenario,
		BatteryCapacity: units.Energy(ref.BatteryUJ),
	}
	return agg.finish(cfg, 0), nil
}
