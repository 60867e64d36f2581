package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coord"
	"repro/internal/coord/delivery"
	"repro/internal/fleet"
)

// This file holds the wrappers through which the benchmark watches the
// program from outside: a scenario that installs a read-only device
// probe, a coordinator that times each service call, and a runner
// connection that times each delivery call. Untraced, they only count
// operations and failures and note the first device dispatch; traced,
// they also record spans.

// unitObs is what the wrappers around one unit of work observe.
type unitObs struct {
	unit int
	t0   time.Time // the unit's start
	rec  *recorder // nil when tracing is off
	root int64     // the unit's root span

	// deviceSpans is off on checkpointed runs: there the probe fires
	// only on a device's final pass, so its span would miss the
	// earlier epochs.
	deviceSpans bool

	dispatch     atomic.Int64 // ns after t0 of the first device dispatch, +1; 0 before it
	conservation atomic.Int64 // devices whose energy did not balance
	calls        atomic.Int64 // delivery calls made
	callFails    atomic.Int64 // delivery calls that failed

	mu       sync.Mutex
	notes    []string // the first few failures, for the report
	partials map[int]*fleet.Partial
}

func newUnitObs(unit int, rec *recorder) *unitObs {
	o := &unitObs{unit: unit, t0: time.Now(), rec: rec, deviceSpans: true, partials: map[int]*fleet.Partial{}}
	if rec != nil {
		o.root = rec.id()
	}
	return o
}

// dispatched notes the first device dispatch.
func (o *unitObs) dispatched() {
	o.dispatch.CompareAndSwap(0, int64(time.Since(o.t0))+1)
}

// setup is the time from the unit's start to its first dispatch.
func (o *unitObs) setup() (time.Duration, bool) {
	d := o.dispatch.Load()
	return time.Duration(d - 1), d != 0
}

func (o *unitObs) note(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.notes) < 8 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// callFailed reports whether a delivery outcome counts as a failure:
// every error except the two that steer a runner's ordinary control
// flow (nothing to lease yet, job finished).
func callFailed(err error) bool {
	return err != nil && !errors.Is(err, delivery.ErrNoWork) && !errors.Is(err, delivery.ErrDone)
}

func outcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, delivery.ErrNoWork):
		return "no-work"
	case errors.Is(err, delivery.ErrDone):
		return "done"
	}
	return "error"
}

// probed wraps a scenario: after the real Build it appends a device
// probe that checks energy conservation and, traced, records the
// device's span from Build's return to the probe.
type probed struct {
	inner fleet.Scenario
	o     *unitObs
}

// provisioned is probed for scenarios that provision hardware per
// device; it must forward Provision or the population silently
// changes.
type provisioned struct {
	*probed
	prov fleet.Provisioner
}

// wrapScenario returns the probing wrapper for sc, forwarding
// fleet.Provisioner exactly when sc implements it.
func wrapScenario(sc fleet.Scenario, o *unitObs) fleet.Scenario {
	p := &probed{inner: sc, o: o}
	if prov, ok := sc.(fleet.Provisioner); ok {
		return provisioned{probed: p, prov: prov}
	}
	return p
}

func (p *probed) Name() string { return p.inner.Name() }

func (p *probed) Build(d *fleet.Device) error {
	p.o.dispatched()
	if err := p.inner.Build(d); err != nil {
		return err
	}
	k, idx, o := d.Kernel, d.Index, p.o
	start := time.Now()
	d.Probes = append(d.Probes, func(res *fleet.DeviceResult) {
		end := time.Now()
		if e := k.Graph.ConservationError(); e != 0 {
			o.conservation.Add(1)
			o.note("device %d: conservation error %v", idx, e)
		}
		if o.rec != nil && o.deviceSpans {
			o.rec.add(o.rec.id(), o.root, o.unit, "fleet.device", strconv.Itoa(idx), res.Scenario, start, end)
		}
	})
	return nil
}

func (p provisioned) Provision(idx int, seed int64) fleet.DeviceProvision {
	p.o.dispatched()
	return p.prov.Provision(idx, seed)
}

// timedService wraps the coordinator handed to delivery.Handler. Each
// traced call becomes a coord.<call> span whose parent is the runner's
// in-flight delivery call; the journal fsyncs happen inside these
// calls.
type timedService struct {
	*coord.Coordinator
	o *unitObs
}

func (s timedService) span(name, runner string, f func() error) error {
	rec := s.o.rec
	if rec == nil {
		return f()
	}
	parent := rec.current(runner + "/" + name)
	id := rec.id()
	start := time.Now()
	err := f()
	rec.add(id, parent, s.o.unit, "coord."+name, runner, outcome(err), start, time.Now())
	return err
}

func (s timedService) Submit(job fleet.Job) error {
	return s.span("submit", "", func() error { return s.Coordinator.Submit(job) })
}

func (s timedService) Claim(runner string) (t delivery.Task, err error) {
	err = s.span("claim", runner, func() error { t, err = s.Coordinator.Claim(runner); return err })
	return t, err
}

func (s timedService) Heartbeat(runner string, beat delivery.Beat) error {
	return s.span("heartbeat", runner, func() error { return s.Coordinator.Heartbeat(runner, beat) })
}

func (s timedService) Complete(runner string, shard int, p *fleet.Partial) error {
	return s.span("complete", runner, func() error { return s.Coordinator.Complete(runner, shard, p) })
}

func (s timedService) Fail(runner string, shard, attempt int, msg string) error {
	return s.span("fail", runner, func() error { return s.Coordinator.Fail(runner, shard, attempt, msg) })
}

// timedConn wraps one runner's (or the submitter's) delivery.Conn. It
// counts and times every call and, traced, keeps the partials the
// runner delivers. It hands the runner the in-process job — the same
// spec, carrying the probing scenario — in place of the wire copy, once
// it has checked that the two serialize identically.
type timedConn struct {
	delivery.Conn
	o       *unitObs
	runner  string
	job     fleet.Job
	jobJSON []byte

	task atomic.Int64 // span id of the runner's current shard; 0 between shards

	// Owned by the runner goroutine (Claim, Complete and Progress all
	// run on it).
	taskKey              string
	taskStart, passStart time.Time
	lastDevice           time.Time
}

func newTimedConn(conn delivery.Conn, o *unitObs, runner string, job fleet.Job) (*timedConn, error) {
	b, err := json.Marshal(job)
	if err != nil {
		return nil, err
	}
	return &timedConn{Conn: conn, o: o, runner: runner, job: job, jobJSON: b}, nil
}

func (c *timedConn) call(name string, parent int64, f func() error) error {
	c.o.calls.Add(1)
	rec := c.o.rec
	var id int64
	var start time.Time
	key := c.runner + "/" + name
	if rec != nil {
		id = rec.id()
		rec.enter(key, id)
		start = time.Now()
	}
	err := f()
	if rec != nil {
		end := time.Now()
		rec.leave(key)
		rec.add(id, parent, c.o.unit, "delivery."+name, c.runner, outcome(err), start, end)
	}
	if callFailed(err) {
		c.o.callFails.Add(1)
		c.o.note("%s %s: %v", c.runner, name, err)
	}
	return err
}

func (c *timedConn) Submit(ctx context.Context, job fleet.Job) error {
	return c.call("submit", c.o.root, func() error { return c.Conn.Submit(ctx, job) })
}

func (c *timedConn) Claim(ctx context.Context, runner string) (t delivery.Task, err error) {
	err = c.call("claim", c.o.root, func() error { t, err = c.Conn.Claim(ctx, runner); return err })
	if err != nil {
		return t, err
	}
	c.o.dispatched()
	if got, jerr := json.Marshal(t.Job); jerr != nil || !bytes.Equal(got, c.jobJSON) {
		c.o.callFails.Add(1)
		c.o.note("%s claim: leased job %s differs from the submitted %s", c.runner, got, c.jobJSON)
		return t, nil
	}
	t.Job = c.job
	now := time.Now()
	c.taskKey = fmt.Sprintf("%s shard %d", c.runner, t.Shard)
	c.taskStart, c.passStart = now, now
	if c.o.rec != nil {
		c.task.Store(c.o.rec.id())
	}
	return t, nil
}

func (c *timedConn) Heartbeat(ctx context.Context, runner string, beat delivery.Beat) error {
	return c.call("heartbeat", c.task.Load(), func() error { return c.Conn.Heartbeat(ctx, runner, beat) })
}

func (c *timedConn) Complete(ctx context.Context, runner string, shard int, p *fleet.Partial) error {
	task := c.task.Load()
	err := c.call("complete", task, func() error { return c.Conn.Complete(ctx, runner, shard, p) })
	if err != nil {
		return err
	}
	if rec := c.o.rec; rec != nil {
		rec.add(task, c.o.root, c.o.unit, "runner.task", c.taskKey, "", c.taskStart, time.Now())
		c.task.Store(0)
		c.o.mu.Lock()
		c.o.partials[shard] = p
		c.o.mu.Unlock()
	}
	return nil
}

func (c *timedConn) Fail(ctx context.Context, runner string, shard, attempt int, msg string) error {
	return c.call("fail", c.task.Load(), func() error { return c.Conn.Fail(ctx, runner, shard, attempt, msg) })
}

// progress is the runner's OnProgress hook: traced, it turns the
// fleet's epoch events into fleet.epoch_pass spans (pass start to the
// last device reduced) and fleet.epoch_publish spans (last device to
// the epoch file's publication).
func (c *timedConn) progress(shard int, p fleet.Progress) {
	rec := c.o.rec
	if rec == nil {
		return
	}
	now := time.Now()
	key := fmt.Sprintf("%s shard %d epoch %d", c.runner, shard, p.Epoch)
	switch {
	case p.Checkpointed:
		rec.add(rec.id(), c.task.Load(), c.o.unit, "fleet.epoch_publish", key, "", c.lastDevice, now)
		c.passStart = now
	case p.Done == p.Hi-p.Lo:
		rec.add(rec.id(), c.task.Load(), c.o.unit, "fleet.epoch_pass", key, "", c.passStart, now)
		c.lastDevice = now
	}
}
