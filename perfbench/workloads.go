package main

import (
	"context"
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/coord"
	"repro/internal/coord/delivery"
	"repro/internal/fleet"
	"repro/internal/units"
)

// defaultSeed is the seed the pinned md5s belong to.
const defaultSeed = 1

// size is one scale of a workload: the fleet each unit of work runs,
// and the canonical-report md5 of the unit the default seed starts
// with.
type size struct {
	devices int
	horizon units.Time
	shards  int // week-cluster only
	md5     string
}

// workload is a named benchmark input. Every unit of work is one fleet
// (or one cluster job) of the workload's size, whose fleet seed derives
// from the benchmark seed and the unit's index.
type workload struct {
	name     string
	scenario string // fleet registry name
	cluster  bool
	buckets  []string
	full     size
	tiny     size // smoke-test scale
}

// The three workloads. Device host time splits very differently across
// them (see README.md): adversarial-hoard is almost all proportional-tap
// replay and decay in the hoarder buckets, month-recharge runs the same
// core/kernel/netd layers with charging in place of draining, and
// week-cluster's devices are cheap, so its cost is the fleet build,
// checkpoints, journal, HTTP and merge around them.
var workloads = []workload{
	{
		name:     "adversarial-hoard",
		scenario: "adversarial",
		buckets:  []string{"adv-lax", "adv-strict", "adv-victim"},
		full:     size{devices: 128, horizon: 4 * units.Hour, md5: "f6887ebb51a6c4efbd9acddfd70df0f8"},
		tiny:     size{devices: 6, horizon: units.Hour, md5: "048e914eb02ac72c8ee010fe408e8b9b"},
	},
	{
		name:     "month-recharge",
		scenario: "monthinthelife",
		buckets:  []string{"month-chatty", "month-commuter", "month-idle", "month-laptop"},
		full:     size{devices: 32, horizon: 30 * 24 * units.Hour, md5: "946845ff040a6836b344fdae83b54ddc"},
		tiny:     size{devices: 4, horizon: 3 * 24 * units.Hour, md5: "537531f6a8a5a98c4bc852a13a19e320"},
	},
	{
		name:     "week-cluster",
		scenario: "weekinthelife",
		cluster:  true,
		buckets:  []string{"week-chatty", "week-commuter", "week-idle"},
		full:     size{devices: 96, horizon: 7 * 24 * units.Hour, shards: 12, md5: "da3bb5a29506374c9e6719c71d492252"},
		tiny:     size{devices: 8, horizon: 2 * 24 * units.Hour, shards: 4, md5: "11dafecefd042a5ed5f25ad4b33a85f9"},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) size(scale string) (size, error) {
	switch scale {
	case "full":
		return w.full, nil
	case "tiny":
		return w.tiny, nil
	}
	return size{}, fmt.Errorf("unknown scale %q (full or tiny)", scale)
}

// parallelism is the worker count (in-process) or runner count
// (cluster): two, or fewer on a smaller machine.
func parallelism() int { return min(2, runtime.NumCPU()) }

// unitResult is one unit of work's outcome.
type unitResult struct {
	o          *unitObs
	devices    int
	deviceDays float64
	setup      time.Duration // start to first device dispatch
	wall       time.Duration // first dispatch to final report
	cpu        time.Duration // process user+sys over the unit
	mallocs    uint64
	report     fleet.Report
	md5        string
	jsonMS     float64 // CanonicalJSON
	err        error

	// week-cluster only
	mergeMS      float64 // Job.Merge over the delivered partials
	mergeMD5     string  // md5 of that merge's canonical report
	journalBytes int64
	epochBytes   int64
	epochFiles   int
}

// runUnit runs one unit of work of w at sz with the given fleet seed.
// rec, when non-nil, records the unit's spans.
func runUnit(w workload, sz size, seed int64, unit int, rec *recorder, workdir string) unitResult {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	o := newUnitObs(unit, rec)
	r := unitResult{o: o, devices: sz.devices,
		deviceDays: float64(sz.devices) * float64(sz.horizon) / float64(24*units.Hour)}
	var end time.Time
	if w.cluster {
		end = runCluster(w, sz, seed, o, workdir, &r)
	} else {
		r.report, r.err = fleet.Run(fleet.Config{
			Devices:  sz.devices,
			Seed:     seed,
			Duration: sz.horizon,
			Workers:  parallelism(),
			Scenario: wrapScenario(fleet.Scenarios()[w.scenario], o),
		})
		end = time.Now()
	}
	cpu1 := cpuTime()
	runtime.ReadMemStats(&ms1)
	r.cpu = cpu1 - cpu0
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	setup, ok := o.setup()
	if !ok && r.err == nil {
		r.err = fmt.Errorf("no device was ever dispatched")
	}
	r.setup = setup
	r.wall = end.Sub(o.t0) - setup
	if rec != nil {
		rec.add(o.root, 0, unit, "bench.unit", fmt.Sprint(seed), w.name, o.t0, end)
	}
	if r.err != nil {
		return r
	}
	t := time.Now()
	b, err := r.report.CanonicalJSON(false)
	if err != nil {
		r.err = err
		return r
	}
	r.jsonMS = msSince(t)
	if rec != nil {
		rec.add(rec.id(), o.root, unit, "fleet.report_json", "", "", t, time.Now())
	}
	r.md5 = md5hex(b)
	return r
}

// runCluster runs one week-cluster job: a coordinator behind
// delivery.Handler on a loopback listener, a submitter and
// parallelism() runners with one worker each dialing it over HTTP, and
// the job's checkpoint dir (journal and epoch files) in a fresh
// directory under workdir. It returns the instant the coordinator's
// merged report was ready.
func runCluster(w workload, sz size, seed int64, o *unitObs, workdir string, r *unitResult) (end time.Time) {
	o.deviceSpans = false
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	fail := func(err error) time.Time {
		r.err = err
		return time.Now()
	}
	dir, err := os.MkdirTemp(workdir, "week-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	job, err := fleet.NewJob(fleet.Config{
		Devices:       sz.devices,
		Seed:          seed,
		Duration:      sz.horizon,
		Scenario:      wrapScenario(fleet.Scenarios()[w.scenario], o),
		CheckpointDir: dir,
	}, sz.shards)
	if err != nil {
		return fail(err)
	}

	// Beats every 100 ms give the heartbeat path samples on short
	// shards; the 10 s lease keeps a scheduling hiccup on a loaded
	// machine from expiring one.
	co := coord.New(coord.Options{Heartbeat: 100 * time.Millisecond, Lease: 10 * time.Second})
	defer co.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	srv := &http.Server{Handler: delivery.Handler(timedService{Coordinator: co, o: o})}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		srv.Shutdown(sctx)
		<-serveErr
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	}()

	base := "http://" + ln.Addr().String()
	sub, err := newTimedConn(delivery.DialHTTP(base), o, "", job)
	if err != nil {
		return fail(err)
	}
	defer sub.Close()
	if err := sub.Submit(ctx, job); err != nil {
		return fail(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < parallelism(); i++ {
		conn, err := newTimedConn(delivery.DialHTTP(base), o, fmt.Sprintf("runner-%d", i), job)
		if err != nil {
			cancel()
			wg.Wait()
			return fail(err)
		}
		rn := &coord.Runner{ID: conn.runner, Conn: conn, Workers: 1, Poll: 20 * time.Millisecond, OnProgress: conn.progress}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			if err := rn.Run(ctx); err != nil {
				o.note("%s: %v", rn.ID, err)
			}
		}()
	}
	r.report, r.err = co.Wait(ctx)
	end = time.Now()
	if r.err != nil {
		cancel()
	}
	// Runners leave on their own once a claim answers ErrDone.
	wg.Wait()

	if fi, err := os.Stat(coord.JournalPath(dir)); err == nil {
		r.journalBytes = fi.Size()
	}
	files, _ := filepath.Glob(filepath.Join(dir, "epoch-*.bin"))
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			r.epochBytes += fi.Size()
			r.epochFiles++
		}
	}
	if o.rec != nil && r.err == nil {
		r.mergeMS, r.mergeMD5 = mergeDelivered(job, o)
	}
	return end
}

// mergeDelivered merges the partials the runners delivered, as a client
// holding them would, timing Job.Merge and fingerprinting its report.
func mergeDelivered(job fleet.Job, o *unitObs) (ms float64, sum string) {
	o.mu.Lock()
	parts := make([]*fleet.Partial, 0, len(o.partials))
	for _, p := range o.partials {
		parts = append(parts, p)
	}
	o.mu.Unlock()
	sort.Slice(parts, func(i, j int) bool { return parts[i].ShardIndex < parts[j].ShardIndex })
	t := time.Now()
	rep, err := job.Merge(parts)
	end := time.Now()
	if err != nil {
		o.note("merge of delivered partials: %v", err)
		return 0, ""
	}
	o.rec.add(o.rec.id(), o.root, o.unit, "fleet.merge", "", "", t, end)
	b, err := rep.CanonicalJSON(false)
	if err != nil {
		o.note("merge of delivered partials: %v", err)
		return 0, ""
	}
	return float64(end.Sub(t)) / float64(time.Millisecond), md5hex(b)
}

func md5hex(b []byte) string {
	s := md5.Sum(b)
	return hex.EncodeToString(s[:])
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
