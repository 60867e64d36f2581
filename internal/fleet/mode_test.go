package fleet

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/snap"
	"repro/internal/units"
)

// TestModeFromOutsideIsValidated: a simulation mode arriving from
// outside the process — a wire or journal job, a shard partial, an
// epoch file — must be one of the three kernel modes, and a job or
// partial written for the per-layer settle knobs this build dropped must
// fail loudly instead of silently running closed form. So must a v2
// partial, whose top-level agg block this build no longer reads, and a
// v3 partial or a job carrying the life resolution this build fixed at
// DefaultLifeResolution.
func TestModeFromOutsideIsValidated(t *testing.T) {
	const job = `{"scenario":"poller","devices":2,"seed":1,"duration_ms":60000,"shards":1`
	const partial = `{"format":"cinder-fleet-partial","scenario":"poller","devices":2,"seed":1,"duration_ms":60000`
	current := fmt.Sprintf(`,"version":%d`, PartialVersion)
	for _, tc := range []struct {
		name  string
		parse func() error
		want  string
	}{
		{"out-of-range job mode", func() error {
			return Job{Scenario: "poller", Devices: 2, DurationMS: 60000, Shards: 1, Mode: 7}.Validate()
		}, "invalid mode"},
		{"numeric job mode", func() error { _, err := ParseJob([]byte(job + `,"mode":7}`)); return err }, "mode"},
		{"unknown job mode", func() error { _, err := ParseJob([]byte(job + `,"mode":"per-sweep"}`)); return err }, "unknown mode"},
		{"removed engine_mode", func() error { _, err := ParseJob([]byte(job + `,"engine_mode":7}`)); return err }, "engine_mode"},
		{"removed settle_mode", func() error { _, err := ParseJob([]byte(job + `,"settle_mode":7}`)); return err }, "settle_mode"},
		{"removed dense_watch", func() error { _, err := ParseJob([]byte(job + `,"dense_watch":true}`)); return err }, "dense_watch"},
		{"removed life_resolution_ms", func() error {
			_, err := ParseJob([]byte(job + `,"life_resolution_ms":1000}`))
			return err
		}, "life_resolution_ms"},
		{"v1 partial", func() error {
			_, err := ParsePartial([]byte(partial + `,"version":1,"engine_mode":1,"settle_mode":0}`))
			return err
		}, "v1"},
		{"v2 partial", func() error {
			_, err := ParsePartial([]byte(partial + `,"version":2,"agg":{"seen":2,"engine_steps":9},"buckets":[]}`))
			return err
		}, "v2"},
		{"v3 partial", func() error {
			_, err := ParsePartial([]byte(partial + `,"version":3,"mode":"closed-form","life_resolution_ms":1000,"buckets":[]}`))
			return err
		}, "v3"},
		{"unknown partial mode", func() error {
			_, err := ParsePartial([]byte(partial + current + `,"mode":"per-sweep"}`))
			return err
		}, "unknown mode"},
		{"out-of-range run mode", func() error {
			_, err := Run(Config{Devices: 1, Duration: units.Second, Scenario: IdleScenario{}, Mode: 3})
			return err
		}, "invalid mode"},
	} {
		if err := tc.parse(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}

	// A job naming every mode survives the wire.
	for _, mode := range []kernel.Mode{kernel.ClosedForm, kernel.PerBatch, kernel.FixedTick} {
		j, err := ParseJob([]byte(job + `,"mode":"` + mode.String() + `"}`))
		if err != nil || j.Mode != mode {
			t.Errorf("mode %v: round trip gave %v, %v", mode, j.Mode, err)
		}
	}
}

// TestResumeRejectsV1EpochFile: an epoch file written by an earlier
// snapshot format must not be resumed from — v1 carried the per-layer
// settle knobs, v2 the life resolution in its header and the charger's
// predicted fire instant.
func TestResumeRejectsV1EpochFile(t *testing.T) {
	for _, ver := range []uint32{1, 2} {
		dir := t.TempDir()
		cfg := Config{Devices: 2, Seed: 3, Duration: 2 * units.Hour, Workers: 1,
			Scenario: IdleScenario{}, CheckpointDir: dir, CheckpointEvery: units.Hour}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "epoch-0000.bin")
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// The header frame is uvarint kind, uvarint length, then the
		// snapshot blob: magic, then the little-endian format version.
		_, n1 := binary.Uvarint(b)
		_, n2 := binary.Uvarint(b[n1:])
		binary.LittleEndian.PutUint32(b[n1+n2+len(snap.Magic):], ver)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg.Resume = true
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "no usable epoch file") {
			t.Fatalf("resume from a v%d epoch file: got %v, want a loud refusal", ver, err)
		}
		report, err := os.ReadFile(path + ".corrupt.report")
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("snapshot is v%d", ver); !strings.Contains(string(report), want) {
			t.Fatalf("quarantine report does not name the stale version %q:\n%s", want, report)
		}
	}
}
