package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/fleet"
)

// Each workload's scenario must reach fleet.Run through the probing
// wrapper with its Provisioner intact: dropping it would silently
// change the population (batteries, hardware, the strict cohort).
func TestWrapperForwardsProvisioner(t *testing.T) {
	for _, w := range workloads {
		sc := fleet.Scenarios()[w.scenario]
		inner, ok := sc.(fleet.Provisioner)
		if !ok {
			t.Fatalf("%s: scenario %q is expected to provision devices", w.name, w.scenario)
		}
		wrapped := wrapScenario(sc, newUnitObs(0, nil))
		if wrapped.Name() != sc.Name() {
			t.Errorf("%s: wrapper renamed %q to %q", w.name, sc.Name(), wrapped.Name())
		}
		prov, ok := wrapped.(fleet.Provisioner)
		if !ok {
			t.Fatalf("%s: wrapper drops fleet.Provisioner", w.name)
		}
		for idx := 0; idx < 64; idx++ {
			seed := fleet.DeriveSeed(defaultSeed, idx)
			if got, want := prov.Provision(idx, seed), inner.Provision(idx, seed); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: device %d provisioned %+v, want %+v", w.name, idx, got, want)
			}
		}
	}
	if _, ok := wrapScenario(fleet.IdleScenario{}, newUnitObs(0, nil)).(fleet.Provisioner); ok {
		t.Error("wrapper adds a Provisioner the scenario does not have")
	}
}

// A wrong pinned md5 must fail every device of the run.
func TestPinMismatchFailsEveryDevice(t *testing.T) {
	w, _ := findWorkload("adversarial-hoard")
	sz := w.tiny
	sz.md5 = "00000000000000000000000000000000"
	res := measure(runOpts{w: w, sz: sz, seed: defaultSeed, seconds: 0.01, workdir: t.TempDir()})
	if !res.tally.md5Mismatch || res.tally.failed() != res.tally.devices+res.tally.callFails {
		t.Fatalf("md5 mismatch not charged to every device: %+v", res.tally)
	}
	if res.pin.md5 != w.tiny.md5 {
		t.Fatalf("pinned unit md5 %s, want %s", res.pin.md5, w.tiny.md5)
	}
}

// runBench runs the command in-process and decodes its last line.
func runBench(t *testing.T, args ...string) (int, result, record, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(append(args, "--workdir", t.TempDir()), &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	var rec record
	if len(lines) >= 2 {
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not a result: %v\n%s", err, out.String())
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rec); err != nil {
			t.Fatalf("record line: %v", err)
		}
	}
	return code, res, rec, out.String() + errb.String()
}

func TestSmokeEachWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				code, res, rec, log := runBench(t, "--workload", w.name, "--seed", "7", "--seconds", "0.3",
					"--trace", trace, "--scale", "tiny")
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, log)
				}
				decl := endToEndMetrics()
				if trace == "1" {
					decl = perLayerMetrics()
				}
				if len(res.Metrics) != len(decl) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(decl))
				}
				for _, d := range decl {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
					if _, absent := rec.Absent[d.name]; trace == "0" && (absent || m.Value <= 0) {
						t.Errorf("end-to-end metric %s = %v (absent %v)", d.name, m.Value, absent)
					}
				}
				if rec.Fingerprint.NProc < 1 || rec.Fingerprint.GoVersion == "" || rec.Fingerprint.CPUModel == "" {
					t.Errorf("fingerprint incomplete: %+v", rec.Fingerprint)
				}
				if trace == "1" {
					for _, name := range []string{"trace.overhead_frac", "core.conservation_errors", "fleet.report_json_ms"} {
						if _, absent := rec.Absent[name]; absent {
							t.Errorf("%s absent: %s", name, rec.Absent[name])
						}
					}
					if w.cluster {
						for _, name := range []string{"coord.claim_ms.p50", "delivery.complete_transport_ms.p50", "fleet.merge_ms", "fleet.epoch_pass_s.p50"} {
							if _, absent := rec.Absent[name]; absent {
								t.Errorf("%s absent: %s", name, rec.Absent[name])
							}
						}
					}
				}
			})
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "week-cluster", "--trace", "2"},
		{"--workload", "week-cluster", "--scale", "huge"},
	} {
		var out bytes.Buffer
		if code := run(append(args, "--workdir", t.TempDir()), &out, &out); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// The command, workloads and metrics in BENCHMARK.json are the ones
// this program runs and prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if want := strings.Split(workloadNames(), ", "); !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []declared) {
		g := make([]string, 0, len(got))
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit)
		}
		w := make([]string, 0, len(want))
		for _, d := range want {
			w = append(w, d.name+" "+d.unit)
		}
		sort.Strings(g)
		sort.Strings(w)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s metrics in BENCHMARK.json:\n%v\nprogram prints:\n%v", kind, g, w)
		}
	}
	same("end_to_end", b.EndToEnd, endToEndMetrics())
	same("per_layer", b.PerLayer, perLayerMetrics())
}
