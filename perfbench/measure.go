package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/fleet"
	"repro/internal/units"
)

// tally counts a run's operations — simulated devices plus delivery
// calls — and its failures.
type tally struct {
	devices, calls         int64
	deviceFails, callFails int64
	// md5Mismatch fails every device of the run: a wrong canonical
	// report says nothing about which device went wrong.
	md5Mismatch bool
}

func (t *tally) add(u unitResult) {
	t.devices += int64(u.devices)
	t.calls += u.o.calls.Load()
	t.callFails += u.o.callFails.Load()
	if u.err != nil {
		t.deviceFails += int64(u.devices)
	} else {
		t.deviceFails += min(u.o.conservation.Load(), int64(u.devices))
	}
}

func (t tally) attempted() int64 { return t.devices + t.calls }

func (t tally) failed() int64 {
	if t.md5Mismatch {
		return t.devices + t.callFails
	}
	return t.deviceFails + t.callFails
}

func (t tally) errorRate() float64 {
	if t.attempted() == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted())
}

// runOpts are one benchmark run's settings.
type runOpts struct {
	w       workload
	sz      size
	seed    int64
	seconds float64
	trace   bool
	workdir string
}

// runResult is everything one benchmark run measured.
type runResult struct {
	units  []unitResult // untraced units, in order
	traced []unitResult // trace mode: the traced twin of each unit
	pin    unitResult
	rec    *recorder
	tally  tally
	notes  []string
	rssMB  float64
}

func (r *runResult) fail(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *runResult) account(u unitResult) {
	r.tally.add(u)
	r.notes = append(r.notes, u.o.notes...)
	if u.err != nil {
		r.fail("unit %d: %v", u.o.unit, u.err)
	}
}

// measure runs units of work back to back (closed loop: the next unit
// starts when the previous one has finished) until opt.seconds have
// passed, then checks the default seed's first unit against its pinned
// md5. In trace mode every unit runs twice, untraced and then traced,
// and the two canonical reports must match.
func measure(opt runOpts) *runResult {
	res := &runResult{}
	if opt.trace {
		res.rec = newRecorder()
	}
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		seed := fleet.DeriveSeed(opt.seed, i)
		u := runUnit(opt.w, opt.sz, seed, i, nil, opt.workdir)
		res.account(u)
		if u.err != nil {
			break
		}
		res.units = append(res.units, u)
		if !opt.trace {
			continue
		}
		t := runUnit(opt.w, opt.sz, seed, i, res.rec, opt.workdir)
		res.account(t)
		if t.err != nil {
			break
		}
		res.traced = append(res.traced, t)
		if t.md5 != u.md5 {
			res.tally.md5Mismatch = true
			res.fail("unit %d: traced canonical md5 %s, untraced %s", i, t.md5, u.md5)
		}
		if opt.w.cluster && t.mergeMD5 != t.md5 {
			res.tally.md5Mismatch = true
			res.fail("unit %d: merge of the delivered partials has md5 %s, the coordinator's report %s", i, t.mergeMD5, t.md5)
		}
	}
	res.rssMB = peakRSSMB()

	// The pinned unit runs traced in trace mode, so tracing is shown
	// not to change the program's output; unit -1 keeps its spans out
	// of the per-layer figures.
	res.pin = runUnit(opt.w, opt.sz, fleet.DeriveSeed(defaultSeed, 0), -1, res.rec, opt.workdir)
	res.account(res.pin)
	if res.pin.err == nil && res.pin.md5 != opt.sz.md5 {
		res.tally.md5Mismatch = true
		res.fail("pinned unit (seed %d, unit 0): canonical md5 %s, pinned %s", defaultSeed, res.pin.md5, opt.sz.md5)
	}
	return res
}

// measuredSpans are the traced run's spans without the pinned unit's.
func (r *runResult) measuredSpans() []span {
	var spans []span
	for _, s := range r.rec.snapshot() {
		if s.Unit >= 0 {
			spans = append(spans, s)
		}
	}
	return spans
}

// endToEnd computes the untraced run's end-to-end metrics. Throughput
// and set-up time are medians over the run's units; CPU time and
// allocations are totals over all units divided by all their
// device-days, which averages out how the population's buckets fall in
// any one unit.
func endToEnd(res *runResult) *metricSet {
	m := newMetricSet()
	var rate, setup []float64
	var cpu, allocs, dd float64
	for _, u := range res.units {
		rate = append(rate, u.deviceDays/u.wall.Seconds())
		setup = append(setup, u.setup.Seconds())
		cpu += u.cpu.Seconds()
		allocs += float64(u.mallocs)
		dd += u.deviceDays
	}
	if len(res.units) == 0 {
		for _, d := range endToEndMetrics() {
			m.absent[d.name] = "no unit of work completed"
		}
		return m
	}
	m.set("device_days_per_s", "device-days/s", median(rate))
	m.set("setup_s", "s", median(setup))
	m.set("cpu_s_per_device_day", "s/device-day", cpu/dd)
	m.set("allocs_per_device_day", "count/device-day", allocs/dd)
	m.set("peak_rss_mb", "MB", res.rssMB)
	return m
}

// perLayer computes the traced run's per-layer metrics from the spans
// and reports of the traced units (the pinned unit excluded).
func perLayer(opt runOpts, res *runResult) *metricSet {
	m := newMetricSet()
	spans := res.measuredSpans()
	w, days := opt.w, float64(opt.sz.horizon)/float64(24*units.Hour)

	// Overhead: traced wall over untraced wall of the same unit.
	var ratio, jsonMS []float64
	for i, t := range res.traced {
		ratio = append(ratio, t.wall.Seconds()/res.units[i].wall.Seconds())
		jsonMS = append(jsonMS, t.jsonMS)
	}
	if len(ratio) > 0 {
		m.set("trace.overhead_frac", "frac", median(ratio)-1)
		m.set("fleet.report_json_ms", "ms", median(jsonMS))
	}

	// Work counts per bucket, from the traced units' reports.
	type sums struct {
		devices                                int
		steps, walks, settled, charges, sweeps float64
	}
	byBucket := map[string]*sums{}
	for _, t := range res.traced {
		for _, b := range t.report.Buckets {
			s := byBucket[b.Name]
			if s == nil {
				s = &sums{}
				byBucket[b.Name] = s
			}
			n := float64(b.Devices)
			s.devices += b.Devices
			s.steps += float64(b.MeanSteps) * n
			s.walks += float64(b.MeanFlowWalks) * n
			s.settled += float64(b.MeanSettledBatches) * n
			s.charges += float64(b.MeanSettledCharges) * n
			s.sweeps += float64(b.MeanSettledSweeps) * n
		}
	}
	var conservation int64
	for _, t := range res.traced {
		conservation += t.o.conservation.Load()
	}
	m.set("core.conservation_errors", "count", float64(conservation))
	for _, b := range w.buckets {
		s := byBucket[b]
		if s == nil || s.devices == 0 {
			m.absent["*."+b] = "no device of this bucket in the traced units"
			continue
		}
		dd := float64(s.devices) * days
		m.set("sim.instants_per_device_day."+b, "count/device-day", s.steps/dd)
		m.set("core.flow_walks_per_device_day."+b, "count/device-day", s.walks/dd)
		m.set("kernel.settled_charges_per_device_day."+b, "count/device-day", s.charges/dd)
		m.set("netd.settled_sweeps_per_device_day."+b, "count/device-day", s.sweeps/dd)
		if s.walks+s.settled > 0 {
			m.set("core.walk_frac."+b, "frac", s.walks/(s.walks+s.settled))
		} else {
			m.absent["core.walk_frac."+b] = "no tap batches walked or settled"
		}
		if w.cluster {
			continue
		}
		dms := spanMS(spans, "fleet.device", b)
		m.timing("fleet.device_ms."+b, "ms", dms, true)
		var total float64
		for _, x := range dms {
			total += x
		}
		m.set("sim.host_us_per_instant."+b, "us", total*1000/s.steps)
	}

	if !w.cluster {
		// Worker occupancy: device spans over the workers' wall time;
		// and each bucket's share of all device time.
		busy, byB, all := map[int]float64{}, map[string]float64{}, 0.0
		for _, s := range spans {
			if s.Name == "fleet.device" {
				busy[s.Unit] += s.dur().Seconds()
				byB[s.Attr] += s.dur().Seconds()
				all += s.dur().Seconds()
			}
		}
		for b, v := range byB {
			m.set("fleet.device_share."+b, "frac", v/all)
		}
		var frac []float64
		for _, t := range res.traced {
			frac = append(frac, busy[t.o.unit]/(float64(parallelism())*t.wall.Seconds()))
		}
		m.median("fleet.worker_busy_frac", "frac", frac)
		return m
	}

	var pass, publish, ckpt, merge, journal, idle []float64
	for _, x := range spanMS(spans, "fleet.epoch_pass", "") {
		pass = append(pass, x/1000)
	}
	publish = spanMS(spans, "fleet.epoch_publish", "")
	m.timing("fleet.epoch_pass_s", "s", pass, false)
	m.timing("fleet.epoch_publish_ms", "ms", publish, false)
	busy := map[int]float64{}
	for _, s := range spans {
		if s.Name == "runner.task" {
			busy[s.Unit] += s.dur().Seconds()
		}
	}
	for _, t := range res.traced {
		if t.epochFiles > 0 {
			perShard := float64(t.epochFiles) / float64(opt.sz.shards)
			ckpt = append(ckpt, float64(t.epochBytes)/(float64(t.devices)*perShard))
		}
		merge = append(merge, t.mergeMS)
		journal = append(journal, float64(t.journalBytes))
		idle = append(idle, 1-busy[t.o.unit]/(float64(parallelism())*t.wall.Seconds()))
	}
	m.median("fleet.checkpoint_bytes_per_device", "bytes", ckpt)
	m.median("fleet.merge_ms", "ms", merge)
	m.median("coord.journal_bytes", "bytes", journal)
	m.median("runner.idle_frac", "frac", idle)

	m.median("coord.submit_ms", "ms", spanMS(spans, "coord.submit", ""))
	m.median("delivery.submit_ms.p50", "ms", spanMS(spans, "delivery.submit", ""))
	m.timing("coord.claim_ms", "ms", spanMS(spans, "coord.claim", ""), true)
	m.timing("coord.heartbeat_ms", "ms", spanMS(spans, "coord.heartbeat", ""), false)
	m.timing("coord.complete_ms", "ms", spanMS(spans, "coord.complete", ""), true)
	for _, call := range []string{"claim", "heartbeat", "complete"} {
		m.timing("delivery."+call+"_ms", "ms", spanMS(spans, "delivery."+call, ""), true)
	}
	for _, call := range []string{"submit", "claim", "heartbeat", "complete"} {
		m.median("delivery."+call+"_transport_ms.p50", "ms", transportMS(spans, "delivery."+call))
	}
	claims := spanMS(spans, "coord.claim", "")
	if len(claims) > 0 {
		m.set("coord.no_work_frac", "frac", float64(len(spanMS(spans, "coord.claim", "no-work")))/float64(len(claims)))
	}
	var callFails int64
	for _, t := range res.traced {
		callFails += t.o.callFails.Load()
	}
	m.set("delivery.errors", "count", float64(callFails))
	return m
}

// tracePath is where a traced run writes its spans.
func tracePath(opt runOpts) string {
	return filepath.Join(opt.workdir, fmt.Sprintf("trace-%s-seed%d.jsonl", opt.w.name, opt.seed))
}
