package fleet

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/units"
)

// TestJobWireRoundTrip: a job built from a run config must survive its
// JSON wire form with every identity field intact, and the
// round-tripped job must materialize the same shard configs.
func TestJobWireRoundTrip(t *testing.T) {
	dir := t.TempDir()
	job, err := NewJob(Config{
		Devices:         30,
		Seed:            21,
		Duration:        24 * units.Hour,
		Scenario:        DayInTheLife(),
		BatteryCapacity: units.Joules(50),
		Mode:            kernel.PerBatch,
		CheckpointDir:   dir,
		CheckpointEvery: 6 * units.Hour,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseJob(b)
	if err != nil {
		t.Fatal(err)
	}
	// The in-process scenario override must NOT survive the wire; all
	// exported fields must.
	job.scenario = nil
	if back != job {
		t.Fatalf("job mangled in round trip:\n%+v\nvs\n%+v", back, job)
	}
	cfgA, err := job.ShardConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	cfgB, err := back.ShardConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	if cfgA.Scenario.Name() != cfgB.Scenario.Name() {
		t.Fatalf("scenario resolution diverged: %q vs %q", cfgA.Scenario.Name(), cfgB.Scenario.Name())
	}
	cfgA.Scenario, cfgB.Scenario = nil, nil
	if !reflect.DeepEqual(cfgA, cfgB) {
		t.Fatalf("shard config diverged:\n%+v\nvs\n%+v", cfgA, cfgB)
	}
}

// TestJobValidate: every malformed spec must be rejected loudly.
func TestJobValidate(t *testing.T) {
	good := Job{Scenario: "poller", Devices: 10, DurationMS: 1000, Shards: 2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mut  func(*Job)
		want string
	}{
		{"unknown scenario", func(j *Job) { j.Scenario = "nope" }, "unknown scenario"},
		{"zero devices", func(j *Job) { j.Devices = 0 }, "at least 1 device"},
		{"zero duration", func(j *Job) { j.DurationMS = 0 }, "duration"},
		{"zero shards", func(j *Job) { j.Shards = 0 }, "shard plan"},
		{"more shards than devices", func(j *Job) { j.Shards = 11 }, "shard plan"},
	} {
		j := good
		tc.mut(&j)
		if err := j.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestShardRunDegenerateMatchesRun: a one-shard ShardRun merged back
// is exactly fleet.Run — the single-process run is the degenerate
// one-runner case of the job path, byte for byte.
func TestShardRunDegenerateMatchesRun(t *testing.T) {
	cfg := shardBase(40)
	whole, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job, err := NewJob(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	part, err := (ShardRun{Job: job, Shard: 0, Workers: 2}).Run()
	if err != nil {
		t.Fatal(err)
	}
	merged, err := job.Merge([]*Partial{part})
	if err != nil {
		t.Fatal(err)
	}
	a, err1 := whole.JSON(false)
	b, err2 := merged.JSON(false)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("degenerate job run diverged from fleet.Run:\n%s\nvs\n%s", a, b)
	}
}
