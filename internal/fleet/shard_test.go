package fleet

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/units"
)

func shardBase(devices int) Config {
	return Config{
		Devices:  devices,
		Seed:     21,
		Duration: 24 * units.Hour,
		Workers:  2,
		Scenario: DayInTheLife(),
	}
}

// TestShardMergeMatchesSingleProcess: shard the fleet 3 ways, merge the
// partials, and require byte identity with the single-process report —
// both the canonical JSON and the full JSON (the engine diagnostics are
// integer sums, so even they merge exactly).
func TestShardMergeMatchesSingleProcess(t *testing.T) {
	cfg := shardBase(50)
	whole, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const n = 3
	parts := make([]*Partial, 0, n)
	for i := 0; i < n; i++ {
		scfg := cfg
		scfg.ShardIndex = i
		scfg.ShardCount = n
		p, err := RunShard(scfg)
		if err != nil {
			t.Fatal(err)
		}
		// Round-trip through JSON, as the CLI does.
		b, err := p.JSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParsePartial(b)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, back)
	}
	// Merge in scrambled order; Merge sorts by range.
	merged, err := Merge([]*Partial{parts[2], parts[0], parts[1]}, cfg.Scenario)
	if err != nil {
		t.Fatal(err)
	}

	wj, err1 := whole.JSON(false)
	mj, err2 := merged.JSON(false)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !bytes.Equal(wj, mj) {
		t.Fatalf("merged shards diverged from single process:\n%s\nvs\n%s", wj, mj)
	}
	wc, _ := whole.CanonicalJSON(false)
	mc, _ := merged.CanonicalJSON(false)
	if !bytes.Equal(wc, mc) {
		t.Fatal("canonical JSON diverged between merged shards and single process")
	}
}

// TestShardRangesPartition: the shard ranges must tile [0, N) exactly
// for awkward divisor combinations.
func TestShardRangesPartition(t *testing.T) {
	for _, devices := range []int{1, 7, 100, 101} {
		for _, n := range []int{1, 2, 3, 7} {
			if n > devices {
				continue
			}
			covered := 0
			for i := 0; i < n; i++ {
				cfg := Config{Devices: devices, ShardIndex: i, ShardCount: n}
				lo, hi := cfg.shardRange()
				if lo != covered {
					t.Fatalf("devices=%d n=%d shard %d starts at %d, want %d", devices, n, i, lo, covered)
				}
				covered = hi
			}
			if covered != devices {
				t.Fatalf("devices=%d n=%d covered %d", devices, n, covered)
			}
		}
	}
}

// TestMergeValidation: gaps, duplicates, identity drift and bucket
// tallies that do not tile a partial's range must be loud errors.
func TestMergeValidation(t *testing.T) {
	cfg := shardBase(30)
	mk := func(i, n int) *Partial {
		scfg := cfg
		scfg.ShardIndex = i
		scfg.ShardCount = n
		p, err := RunShard(scfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p0, p1, p2 := mk(0, 3), mk(1, 3), mk(2, 3)

	if _, err := Merge([]*Partial{p0, p2}, cfg.Scenario); err == nil ||
		!strings.Contains(err.Error(), "coverage gap") {
		t.Fatalf("gap: want coverage error, got %v", err)
	}
	if _, err := Merge([]*Partial{p0, p1, p1, p2}, cfg.Scenario); err == nil {
		t.Fatal("duplicate shard merged silently")
	}
	drift := *p1
	drift.Seed = 999
	if _, err := Merge([]*Partial{p0, &drift, p2}, cfg.Scenario); err == nil ||
		!strings.Contains(err.Error(), "identically configured") {
		t.Fatalf("seed drift: want identity error, got %v", err)
	}
	if _, err := Merge([]*Partial{p0, p1, p2}, IdleScenario{}); err == nil {
		t.Fatal("wrong scenario merged silently")
	}
	if _, err := Merge(nil, cfg.Scenario); err == nil {
		t.Fatal("empty merge succeeded")
	}

	// A partial whose bucket tallies disagree with its own range is
	// refused by ParsePartial (the gate -merge, delivery and journal
	// recovery share) and by Merge, naming the bucket, instead of
	// merging into a report whose totals disagree with its buckets.
	if len(p0.Buckets) < 2 {
		t.Fatalf("want ≥ 2 buckets in shard 0, got %d", len(p0.Buckets))
	}
	first := p0.Buckets[0].Name
	for _, tc := range []struct {
		spoil func(p *Partial)
		want  string
	}{
		{func(p *Partial) { p.Buckets[1].Name = first }, fmt.Sprintf("lists bucket %q twice", first)},
		{func(p *Partial) { p.Buckets[0].Devices = 0 }, fmt.Sprintf("bucket %q holds 0 devices", first)},
		{func(p *Partial) { p.Buckets[0].Devices++ }, "buckets hold 11 devices for range [0,10)"},
	} {
		bad := *p0
		bad.Buckets = append([]partialBucket(nil), p0.Buckets...)
		tc.spoil(&bad)
		b, err := bad.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParsePartial(b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParsePartial got %v, want an error containing %q", err, tc.want)
		}
		if _, err := Merge([]*Partial{&bad, p1, p2}, cfg.Scenario); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Merge got %v, want an error containing %q", err, tc.want)
		}
	}
}

// TestShardedCheckpointResume: sharding composes with checkpoint/resume
// — a shard interrupted and resumed produces the same partial.
func TestShardedCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Devices:       9,
		Seed:          13,
		Duration:      3 * 24 * units.Hour,
		Workers:       2,
		Scenario:      WeekInTheLife(),
		ShardIndex:    1,
		ShardCount:    2,
		CheckpointDir: dir,
	}
	full, err := RunShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	resumed, err := RunShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := full.JSON()
	b, _ := resumed.JSON()
	if !bytes.Equal(a, b) {
		t.Fatalf("resumed shard partial diverged:\n%s\nvs\n%s", a, b)
	}
}
