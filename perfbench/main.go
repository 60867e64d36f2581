// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed time and prints every metric by name and unit:
// with -trace 0 the end-to-end metrics, with -trace 1 the per-layer
// metrics of a traced run. It watches the program only through public
// entry points (fleet.Run, a probing fleet.Scenario wrapper, the
// coordinator behind delivery.Handler, each runner's delivery.Conn,
// Runner.OnProgress, Job.Merge, Report.CanonicalJSON) and exits
// nonzero on any md5, conservation or delivery failure. See README.md.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload adversarial-hoard --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// declared is a metric BENCHMARK.json names.
type declared struct{ name, unit string }

func endToEndMetrics() []declared {
	return []declared{
		{"device_days_per_s", "device-days/s"},
		{"setup_s", "s"},
		{"cpu_s_per_device_day", "s/device-day"},
		{"allocs_per_device_day", "count/device-day"},
		{"peak_rss_mb", "MB"},
	}
}

// perLayerMetrics lists every per-layer metric over all workloads; a
// traced run prints each, with value 0 where it does not apply, and
// says why in its record line.
func perLayerMetrics() []declared {
	var d []declared
	add := func(unit string, names ...string) {
		for _, n := range names {
			d = append(d, declared{n, unit})
		}
	}
	var all, inProcess []string
	for _, w := range workloads {
		all = append(all, w.buckets...)
		if !w.cluster {
			inProcess = append(inProcess, w.buckets...)
		}
	}
	for _, b := range inProcess {
		add("ms", "fleet.device_ms."+b+".p50", "fleet.device_ms."+b+".tail")
		add("count", "fleet.device_ms."+b+".n")
	}
	add("frac", "fleet.worker_busy_frac")
	add("s", "fleet.epoch_pass_s.p50")
	add("ms", "fleet.epoch_publish_ms.p50")
	add("bytes", "fleet.checkpoint_bytes_per_device")
	add("ms", "fleet.merge_ms", "fleet.report_json_ms")
	for _, b := range all {
		add("count/device-day", "sim.instants_per_device_day."+b)
	}
	for _, b := range inProcess {
		add("us", "sim.host_us_per_instant."+b)
	}
	for _, b := range all {
		add("count/device-day", "core.flow_walks_per_device_day."+b)
		add("frac", "core.walk_frac."+b)
	}
	add("count", "core.conservation_errors")
	for _, b := range all {
		add("count/device-day", "kernel.settled_charges_per_device_day."+b)
	}
	for _, b := range all {
		add("count/device-day", "netd.settled_sweeps_per_device_day."+b)
	}
	add("ms", "coord.submit_ms", "coord.claim_ms.p50", "coord.claim_ms.tail")
	add("count", "coord.claim_ms.n")
	add("ms", "coord.heartbeat_ms.p50")
	add("count", "coord.heartbeat_ms.n")
	add("ms", "coord.complete_ms.p50", "coord.complete_ms.tail")
	add("count", "coord.complete_ms.n")
	add("frac", "coord.no_work_frac")
	add("bytes", "coord.journal_bytes")
	add("ms", "delivery.submit_ms.p50")
	for _, call := range []string{"claim", "heartbeat", "complete"} {
		add("ms", "delivery."+call+"_ms.p50", "delivery."+call+"_ms.tail")
		add("count", "delivery."+call+"_ms.n")
	}
	for _, call := range []string{"submit", "claim", "heartbeat", "complete"} {
		add("ms", "delivery."+call+"_transport_ms.p50")
	}
	add("count", "delivery.errors")
	add("frac", "runner.idle_frac")
	add("frac", "trace.overhead_frac")
	return d
}

// whyAbsent explains a declared metric the run did not measure.
func whyAbsent(w workload, m *metricSet, name string) string {
	if r, ok := m.absent[name]; ok {
		return r
	}
	for _, b := range w.buckets {
		if strings.HasSuffix(name, "."+b) || strings.Contains(name, "."+b+".") {
			if r, ok := m.absent["*."+b]; ok {
				return r
			}
		}
	}
	for _, o := range workloads {
		if o.name == w.name {
			continue
		}
		for _, b := range o.buckets {
			if strings.HasSuffix(name, "."+b) || strings.Contains(name, "."+b+".") {
				return "bucket of workload " + o.name
			}
		}
	}
	layer, _, _ := strings.Cut(name, ".")
	if !w.cluster {
		return "in-process workload: no checkpoint, coordinator or delivery layer"
	}
	if layer == "fleet" || layer == "sim" {
		return "checkpointed shards: the device probe fires only on a device's final epoch, so per-device host time is not measured"
	}
	return "not measured"
}

// result is the last line every run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the line before it: the run's settings, the machine
// fingerprint, failures, and the figures that are not metrics.
type record struct {
	Record      string             `json:"record"`
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       int                `json:"trace"`
	Scale       string             `json:"scale"`
	Fingerprint fingerprint        `json:"fingerprint"`
	Units       int                `json:"units"`
	ErrorRate   float64            `json:"error_rate"`
	Failures    []string           `json:"failures,omitempty"`
	PinnedMD5   string             `json:"pinned_md5"`
	PinMD5      string             `json:"pin_md5"`
	Extra       map[string]metric  `json:"extra,omitempty"`
	Absent      map[string]string  `json:"absent,omitempty"`
	LayerSelfS  map[string]float64 `json:"layer_self_s,omitempty"`
	TraceFile   string             `json:"trace_file,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: "+workloadNames())
	seed := fl.Int64("seed", defaultSeed, "workload seed; unit i's fleet seed is fleet.DeriveSeed(seed, i)")
	seconds := fl.Float64("seconds", 10, "how long to run units of work back to back")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	scale := fl.String("scale", "full", "full, or tiny for smoke tests")
	workdir := fl.String("workdir", ".bench_build", "scratch directory for checkpoints and trace files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	sz, err := w.size(*scale)
	if err != nil || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments: scale %q, trace %d, seconds %v\n", *scale, *trace, *seconds)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	opt := runOpts{w: w, sz: sz, seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir}
	res := measure(opt)

	var m *metricSet
	var decl []declared
	if opt.trace {
		m, decl = perLayer(opt, res), perLayerMetrics()
	} else {
		m, decl = endToEnd(res), endToEndMetrics()
	}
	if err := m.check(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	rec := record{
		Record: "perfbench", Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace, Scale: *scale,
		Fingerprint: machineFingerprint(),
		Units:       len(res.units),
		ErrorRate:   res.tally.errorRate(),
		Failures:    res.notes,
		PinnedMD5:   sz.md5,
		PinMD5:      res.pin.md5,
		Extra:       map[string]metric{},
		Absent:      map[string]string{},
	}
	out := result{
		Correct:   res.tally.failed() == 0 && len(res.notes) == 0,
		Attempted: res.tally.attempted(),
		Failed:    res.tally.failed(),
		Metrics:   map[string]metric{},
	}
	for _, d := range decl {
		v, ok := m.values[d.name]
		if !ok {
			v = metric{Value: 0, Unit: d.unit}
			rec.Absent[d.name] = whyAbsent(w, m, d.name)
		} else if v.Unit != d.unit {
			fmt.Fprintf(stderr, "perfbench: metric %s measured in %s, declared in %s\n", d.name, v.Unit, d.unit)
			return 2
		}
		out.Metrics[d.name] = v
	}
	for name, v := range m.values {
		if _, ok := out.Metrics[name]; !ok {
			rec.Extra[name] = v
		}
	}
	if opt.trace {
		rec.LayerSelfS = layerSelf(res.measuredSpans())
		rec.TraceFile = tracePath(opt)
		if err := res.rec.write(rec.TraceFile); err != nil {
			fmt.Fprintf(stderr, "perfbench: write trace: %v\n", err)
			return 2
		}
	}

	printTable(stdout, rec, out, decl)
	recLine, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	resLine, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n%s\n", recLine, resLine)
	if !out.Correct {
		fmt.Fprintf(stderr, "perfbench: %s failed %d of %d operations:\n  %s\n",
			w.name, out.Failed, out.Attempted, strings.Join(res.notes, "\n  "))
		return 1
	}
	return 0
}

// printTable prints the metrics for a human reader, before the record
// and result lines.
func printTable(w io.Writer, rec record, out result, decl []declared) {
	fmt.Fprintf(w, "perfbench %s seed %d trace %d: %d units, %d of %d operations failed (error_rate %g)\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Units, out.Failed, out.Attempted, rec.ErrorRate)
	names := make([]string, 0, len(decl))
	for _, d := range decl {
		if _, absent := rec.Absent[d.name]; !absent {
			names = append(names, d.name)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-48s %14.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}
