package fleet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"

	"repro/internal/kernel"
	"repro/internal/snap"
	"repro/internal/units"
)

// This file implements the fleet's pass loop and checkpoint/resume. A
// checkpointed run proceeds epoch by epoch (default: one simulated day);
// an uncheckpointed run is the same loop over a one-epoch plan, whose
// only pass reads no epoch file and writes none. Every pass runs the
// whole device range through the worker pool; at a non-final
// boundary each surviving device serializes its complete state — engine
// clock and schedules, RNG position, object census, reserve levels, tap
// carries, scheduler accounting, radio/netd/baseband state, workload
// hook counters — and the reducer streams the snapshots into an epoch
// file in strict device-index order. Devices that died during the epoch
// contribute their final DeviceResult instead, which later epochs pass
// through untouched. The final pass aggregates exactly as an
// uninterrupted run would.
//
// Epoch files are written to a temporary name and renamed only when
// complete, so the newest file with a matching header is always a
// consistent resume point: -resume rebuilds every device from its
// deterministic construction path, overlays the snapshot, and continues
// with kernel.ResumeRun — no Run-boundary re-step — making the resumed
// run's canonical report byte-identical to an uninterrupted one (the
// resume-equivalence suite asserts it).

// DefaultCheckpointEvery is the epoch length: one simulated day, the
// boundary the week-in-the-life scenario quiesces at.
const DefaultCheckpointEvery = 24 * units.Hour

// Epoch record kinds.
const (
	recSnapshot = 1 // a live device's state snapshot
	recResult   = 2 // a dead device's final result, passed through
)

// snapshotDevice serializes a device's complete state at a quiescent
// epoch boundary.
func snapshotDevice(d *Device) ([]byte, error) {
	if n := d.Netd.WaitingThreads(); n > 0 {
		// Netd's parked-sweep and settled-sweep state snapshots fine; what
		// cannot is a waiter itself — a live reference to a blocked thread
		// and its billing reserve, plus a pool-crossing prediction over
		// them, in an object world the restore rebuilds from scratch.
		return nil, fmt.Errorf("fleet: device %d (scenario %q) not checkpoint-quiet: %d callers blocked in netd; "+
			"a cooperative-pooling session (and its predicted pool-crossing) cannot span a "+
			"checkpoint — the %q workload has a poll in flight at this epoch boundary; "+
			"move the boundary (-checkpoint-every) to an instant where no poll is in flight",
			d.Index, d.Scenario, n, d.Scenario)
	}
	w := snap.NewWriter()
	w.Section("fleet-device")
	w.U64(uint64(d.Index))
	w.I64(d.Seed)
	w.String(d.Scenario)
	w.Bool(d.Smdd != nil)
	d.Kernel.Snapshot(w)
	d.Radio.Snapshot(w)
	d.Netd.Snapshot(w)
	if d.Smdd != nil {
		d.Smdd.Snapshot(w)
	}
	w.U64(uint64(len(d.Hooks)))
	for _, h := range d.Hooks {
		h.Save(w)
	}
	return w.Finish()
}

// restoreDevice overlays a snapshot onto a freshly built device. Every
// divergence between the snapshot and the rebuilt device — different
// scenario bucket, workload drift, mid-run state the rebuild cannot
// reproduce — fails with a descriptive error rather than producing a
// silently wrong device.
func restoreDevice(d *Device, blob []byte) error {
	r, err := snap.Open(blob)
	if err != nil {
		return err
	}
	r.Section("fleet-device")
	idx := int(r.U64())
	seed := r.I64()
	scenario := r.String()
	hasSmdd := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if idx != d.Index || seed != d.Seed {
		return fmt.Errorf("fleet: restore: snapshot of device %d (seed %d) onto device %d (seed %d)",
			idx, seed, d.Index, d.Seed)
	}
	if scenario != d.Scenario {
		return fmt.Errorf("fleet: restore: snapshot bucket %q, rebuilt device drew %q", scenario, d.Scenario)
	}
	if hasSmdd != (d.Smdd != nil) {
		return fmt.Errorf("fleet: restore: snapshot smdd presence %v, rebuilt device %v", hasSmdd, d.Smdd != nil)
	}
	if err := d.Kernel.Restore(r); err != nil {
		return err
	}
	if err := d.Radio.Restore(r); err != nil {
		return err
	}
	if err := d.Netd.Restore(r); err != nil {
		return err
	}
	if hasSmdd {
		if err := d.Smdd.Restore(r); err != nil {
			return err
		}
	}
	nHooks := int(r.U64())
	if err := r.Err(); err != nil {
		return err
	}
	if nHooks != len(d.Hooks) {
		return fmt.Errorf("fleet: restore: snapshot has %d workload hooks, rebuilt device registered %d",
			nHooks, len(d.Hooks))
	}
	for i, h := range d.Hooks {
		if err := h.Load(r); err != nil {
			return fmt.Errorf("fleet: restore: workload hook %d: %w", i, err)
		}
	}
	return r.Close()
}

// encodeResult serializes a dead device's final result for epoch-file
// passthrough.
func encodeResult(res DeviceResult) ([]byte, error) {
	w := snap.NewWriter()
	w.Section("fleet-result")
	w.U64(uint64(res.Index))
	w.I64(res.Seed)
	w.String(res.Scenario)
	w.I64(int64(res.Consumed))
	w.I64(int64(res.BatteryLeft))
	w.I64(int64(res.Recharged))
	w.I64(int64(res.Reclaimed))
	w.Bool(res.Died)
	w.I64(int64(res.DiedAt))
	w.U64(math.Float64bits(res.Utilization))
	w.I64(res.BusyTicks)
	w.I64(res.IdleTicks)
	w.I64(res.RadioActivations)
	w.I64(res.Polls)
	w.I64(res.Pages)
	w.I64(res.PowerUps)
	w.I64(res.SMSSent)
	w.I64(res.CallsPlaced)
	w.U64(res.Diag.EngineSteps)
	w.I64(res.Diag.FlowWalks)
	w.I64(res.Diag.SettledBatches)
	w.I64(res.Diag.SettledSweeps)
	w.I64(res.Diag.SettledCharges)
	return w.Finish()
}

// decodeResult deserializes a passthrough result record.
func decodeResult(blob []byte) (DeviceResult, error) {
	r, err := snap.Open(blob)
	if err != nil {
		return DeviceResult{}, err
	}
	r.Section("fleet-result")
	res := DeviceResult{
		Index:    int(r.U64()),
		Seed:     r.I64(),
		Scenario: r.String(),
	}
	res.Consumed = units.Energy(r.I64())
	res.BatteryLeft = units.Energy(r.I64())
	res.Recharged = units.Energy(r.I64())
	res.Reclaimed = units.Energy(r.I64())
	res.Died = r.Bool()
	res.DiedAt = units.Time(r.I64())
	res.Utilization = math.Float64frombits(r.U64())
	res.BusyTicks = r.I64()
	res.IdleTicks = r.I64()
	res.RadioActivations = r.I64()
	res.Polls = r.I64()
	res.Pages = r.I64()
	res.PowerUps = r.I64()
	res.SMSSent = r.I64()
	res.CallsPlaced = r.I64()
	res.Diag.EngineSteps = r.U64()
	res.Diag.FlowWalks = r.I64()
	res.Diag.SettledBatches = r.I64()
	res.Diag.SettledSweeps = r.I64()
	res.Diag.SettledCharges = r.I64()
	if err := r.Err(); err != nil {
		return DeviceResult{}, err
	}
	return res, r.Close()
}

// epochPlan describes the epoch partition of a run's horizon.
type epochPlan struct {
	every units.Time
	count int
}

// planEpochs partitions the horizon at the checkpoint interval; an
// uncheckpointed run is one epoch spanning the whole horizon.
func planEpochs(cfg Config) epochPlan {
	if cfg.CheckpointDir == "" {
		return epochPlan{every: cfg.Duration, count: 1}
	}
	every := cfg.CheckpointEvery
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	if every > cfg.Duration {
		every = cfg.Duration
	}
	count := int((cfg.Duration + every - 1) / every)
	return epochPlan{every: every, count: count}
}

// end returns the absolute end instant of epoch e.
func (p epochPlan) end(cfg Config, e int) units.Time {
	t := units.Time(e+1) * p.every
	if t > cfg.Duration {
		t = cfg.Duration
	}
	return t
}

// epochPath names epoch e's file; sharded runs get per-shard files.
func epochPath(cfg Config, e int) string {
	name := fmt.Sprintf("epoch-%04d.bin", e)
	if cfg.ShardCount > 0 {
		name = fmt.Sprintf("epoch-%04d.shard-%d-of-%d.bin", e, cfg.ShardIndex, cfg.ShardCount)
	}
	return filepath.Join(cfg.CheckpointDir, name)
}

// epochHeader is the identity every epoch file carries: a resume may
// only continue from a file written by an identically configured run.
func writeEpochHeader(w *snap.Writer, cfg Config, plan epochPlan, e, lo, hi int) {
	w.Section("epoch-header")
	w.String(cfg.Scenario.Name())
	w.U64(uint64(cfg.Devices))
	w.I64(cfg.Seed)
	w.I64(int64(cfg.Duration))
	w.I64(int64(plan.every))
	w.U64(uint64(e))
	w.U64(uint64(lo))
	w.U64(uint64(hi))
	w.I64(int64(cfg.BatteryCapacity))
	w.String(cfg.Mode.String())
}

func checkEpochHeader(r *snap.Reader, cfg Config, plan epochPlan, e, lo, hi int) error {
	r.Section("epoch-header")
	scenario := r.String()
	devices := int(r.U64())
	seed := r.I64()
	duration := units.Time(r.I64())
	every := units.Time(r.I64())
	epoch := int(r.U64())
	flo := int(r.U64())
	fhi := int(r.U64())
	battery := units.Energy(r.I64())
	modeName := r.String()
	if err := r.Err(); err != nil {
		return err
	}
	mode, err := kernel.ParseMode(modeName)
	if err != nil {
		return fmt.Errorf("fleet: epoch file: %w", err)
	}
	switch {
	case scenario != cfg.Scenario.Name():
		return fmt.Errorf("fleet: epoch file is scenario %q, run is %q", scenario, cfg.Scenario.Name())
	case devices != cfg.Devices || seed != cfg.Seed || duration != cfg.Duration:
		return fmt.Errorf("fleet: epoch file is for %d devices seed %d over %v; run is %d devices seed %d over %v",
			devices, seed, duration, cfg.Devices, cfg.Seed, cfg.Duration)
	case every != plan.every:
		return fmt.Errorf("fleet: epoch file uses checkpoint interval %v, run uses %v", every, plan.every)
	case epoch != e:
		return fmt.Errorf("fleet: epoch file is epoch %d, expected %d", epoch, e)
	case flo != lo || fhi != hi:
		return fmt.Errorf("fleet: epoch file covers devices [%d,%d), run covers [%d,%d)", flo, fhi, lo, hi)
	case battery != cfg.BatteryCapacity:
		return fmt.Errorf("fleet: epoch file battery override %v, run has %v", battery, cfg.BatteryCapacity)
	case mode != cfg.Mode:
		return fmt.Errorf("fleet: epoch file mode %v, run has %v", mode, cfg.Mode)
	}
	return nil
}

// epochWriter streams records into a temporary epoch file, renamed into
// place only once every device in the range has been written — an
// existing epoch file is therefore always complete.
type epochWriter struct {
	f    *os.File
	bw   *bufio.Writer
	path string
	next int
}

func newEpochWriter(cfg Config, plan epochPlan, e, lo, hi int) (*epochWriter, error) {
	if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
		return nil, err
	}
	path := epochPath(cfg, e)
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return nil, err
	}
	ew := &epochWriter{f: f, bw: bufio.NewWriterSize(f, 1<<20), path: path, next: lo}
	hw := snap.NewWriter()
	writeEpochHeader(hw, cfg, plan, e, lo, hi)
	blob, err := hw.Finish()
	if err != nil {
		return nil, err
	}
	ew.writeFrame(0, blob)
	return ew, nil
}

// writeFrame emits one length-prefixed frame: kind, index, payload.
func (ew *epochWriter) writeFrame(kind int, blob []byte) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(kind))
	ew.bw.Write(tmp[:n])
	n = binary.PutUvarint(tmp[:], uint64(len(blob)))
	ew.bw.Write(tmp[:n])
	ew.bw.Write(blob)
}

// add appends device idx's record; records must arrive in index order
// (the strict-index reducer guarantees it).
func (ew *epochWriter) add(idx, kind int, blob []byte) error {
	if idx != ew.next {
		return fmt.Errorf("fleet: epoch write out of order: device %d, expected %d", idx, ew.next)
	}
	ew.next++
	ew.writeFrame(kind, blob)
	return nil
}

// finish flushes, closes and atomically publishes the epoch file.
func (ew *epochWriter) finish(hi int) error {
	if ew.next != hi {
		ew.abort()
		return fmt.Errorf("fleet: epoch file incomplete: wrote through device %d, range ends at %d", ew.next, hi)
	}
	if err := ew.bw.Flush(); err != nil {
		ew.abort()
		return err
	}
	if err := ew.f.Close(); err != nil {
		return err
	}
	return os.Rename(ew.path+".tmp", ew.path)
}

// abort discards the temporary file.
func (ew *epochWriter) abort() {
	ew.f.Close()
	os.Remove(ew.path + ".tmp")
}

// epochReader streams records back out of an epoch file.
type epochReader struct {
	f    *os.File
	br   *bufio.Reader
	next int
}

// openEpochReader opens epoch e's file for the pass that resumes from
// it, positioned at device lo's record.
func openEpochReader(cfg Config, plan epochPlan, e, lo, hi int) (*epochReader, error) {
	path := epochPath(cfg, e)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	er := &epochReader{f: f, br: bufio.NewReaderSize(f, 1<<20), next: lo}
	if err := er.header(cfg, plan, e, lo, hi); err != nil {
		f.Close()
		return nil, fmt.Errorf("fleet: %s: %w", path, err)
	}
	return er, nil
}

// header reads an epoch file's leading frame: it must be the header
// (kind 0), a sound snapshot, and carry this run's identity. An identity
// mismatch wraps errEpochMismatch.
func (er *epochReader) header(cfg Config, plan epochPlan, e, lo, hi int) error {
	kind, blob, err := er.readFrame()
	if err != nil {
		return fmt.Errorf("epoch header frame: %w", err)
	}
	if kind != 0 {
		return fmt.Errorf("missing epoch header (leading frame kind %d)", kind)
	}
	hr, err := snap.Open(blob)
	if err != nil {
		return fmt.Errorf("epoch header: %w", err)
	}
	if err := checkEpochHeader(hr, cfg, plan, e, lo, hi); err != nil {
		return fmt.Errorf("%w: %v", errEpochMismatch, err)
	}
	return nil
}

func (er *epochReader) readFrame() (kind int, blob []byte, err error) {
	k, err := binary.ReadUvarint(er.br)
	if err != nil {
		return 0, nil, err
	}
	n, err := binary.ReadUvarint(er.br)
	if err != nil {
		return 0, nil, err
	}
	blob = make([]byte, n)
	if _, err := io.ReadFull(er.br, blob); err != nil {
		return 0, nil, err
	}
	return int(k), blob, nil
}

// read returns device idx's record; calls must arrive in index order.
func (er *epochReader) read(idx int) ([]byte, error) {
	if idx != er.next {
		return nil, fmt.Errorf("fleet: epoch read out of order: device %d, expected %d", idx, er.next)
	}
	er.next++
	_, blob, err := er.readFrame()
	if err != nil {
		return nil, fmt.Errorf("fleet: epoch record for device %d: %w", idx, err)
	}
	return blob, nil
}

func (er *epochReader) close() { er.f.Close() }

// errEpochMismatch classifies an epoch file that is structurally sound
// but belongs to a different run configuration — not corruption, so
// salvage skips it without quarantining.
var errEpochMismatch = errors.New("fleet: epoch file belongs to a different run")

// verifyEpoch fully validates epoch e's file as a resume point: header
// identity, every record frame present with a valid CRC, exactly the
// shard's device count, and no trailing bytes. It returns nil for a
// usable file, fs.ErrNotExist (wrapped) when absent, errEpochMismatch
// (wrapped) for a sound file from a different run, and any other error
// for corruption — a torn rename, a truncated tail, flipped bits. Only
// full validation is good enough here: the rename-into-place protocol
// makes complete files the common case, but salvage exists precisely
// for the storage failures that break that assumption.
func verifyEpoch(cfg Config, plan epochPlan, e, lo, hi int) error {
	f, err := os.Open(epochPath(cfg, e))
	if err != nil {
		return err
	}
	defer f.Close()
	er := &epochReader{f: f, br: bufio.NewReaderSize(f, 1<<20), next: lo}
	if err := er.header(cfg, plan, e, lo, hi); err != nil {
		return err
	}
	for idx := lo; idx < hi; idx++ {
		kind, blob, err := er.readFrame()
		if err != nil {
			return fmt.Errorf("record for device %d: %w", idx, err)
		}
		if kind != recSnapshot && kind != recResult {
			return fmt.Errorf("record for device %d has unknown kind %d", idx, kind)
		}
		if _, err := snap.Open(blob); err != nil {
			return fmt.Errorf("record for device %d: %w", idx, err)
		}
	}
	if _, _, err := er.readFrame(); err != io.EOF {
		if err == nil {
			return fmt.Errorf("trailing data after final device %d", hi-1)
		}
		return fmt.Errorf("trailing garbage: %w", err)
	}
	return nil
}

// quarantineEpoch moves a corrupt epoch file aside as <name>.corrupt
// and writes a <name>.corrupt.report describing the damage, so the bad
// bytes stay available for diagnosis while resume falls back past
// them.
func quarantineEpoch(cfg Config, e int, verr error) error {
	path := epochPath(cfg, e)
	if err := os.Rename(path, path+".corrupt"); err != nil {
		return err
	}
	report := fmt.Sprintf(
		"epoch file quarantined by resume salvage\n\n"+
			"file:     %s\n"+
			"moved to: %s.corrupt\n"+
			"error:    %v\n\n"+
			"The resume fell back to the newest older epoch that verifies, so at most\n"+
			"the epochs after it were re-simulated. The report is unaffected (resumed\n"+
			"runs are byte-identical). Delete the .corrupt files once diagnosed.\n",
		path, path, verr)
	return os.WriteFile(path+".corrupt.report", []byte(report), 0o644)
}

// blobKind classifies an epoch record payload by its leading section.
func blobKind(blob []byte) (string, error) {
	r, err := snap.Open(blob)
	if err != nil {
		return "", err
	}
	return r.String(), r.Err()
}

// runEpochs simulates the config's device range into the aggregate —
// the one pass loop Run, RunShard and every coordinator-dispatched
// ShardRun share (see the file comment).
func runEpochs(cfg Config, workers int, agg aggregate) error {
	lo, hi := cfg.shardRange()
	plan := planEpochs(cfg)

	// Resume salvage: walk epochs newest-first and continue after the
	// newest one that fully verifies. A missing file is skipped
	// silently (the run may simply not have reached it); a sound file
	// from a different run is skipped with a warning; a corrupt file —
	// torn write, truncation, flipped bits — is quarantined with a
	// report and the walk falls back to the epoch before it, so a bad
	// newest epoch costs re-simulating at most the epochs after the
	// last good one, never the whole run.
	start := 0
	quarantined := 0
	if cfg.Resume || cfg.ResumeAuto {
		for e := plan.count - 2; e >= 0; e-- {
			verr := verifyEpoch(cfg, plan, e, lo, hi)
			if verr == nil {
				start = e + 1
				break
			}
			if errors.Is(verr, fs.ErrNotExist) {
				continue
			}
			if errors.Is(verr, errEpochMismatch) {
				cfg.warnf("fleet: resume: skipping %s: %v", epochPath(cfg, e), verr)
				continue
			}
			cfg.warnf("fleet: resume: quarantining corrupt epoch file %s: %v", epochPath(cfg, e), verr)
			if qerr := quarantineEpoch(cfg, e, verr); qerr != nil {
				return fmt.Errorf("fleet: resume: quarantine %s: %w", epochPath(cfg, e), qerr)
			}
			quarantined++
		}
		if start == 0 && !cfg.ResumeAuto {
			if quarantined > 0 {
				return fmt.Errorf("fleet: -resume: no usable epoch file matching this run in %s "+
					"(%d corrupt file(s) quarantined as *.corrupt — see the *.corrupt.report beside them)",
					cfg.CheckpointDir, quarantined)
			}
			return fmt.Errorf("fleet: -resume: no complete epoch file matching this run in %s", cfg.CheckpointDir)
		}
	}

	m := newMeter(&cfg, lo, hi, plan.count)
	for e := start; e < plan.count; e++ {
		final := e == plan.count-1
		passStart := units.Time(0)
		if e > 0 {
			passStart = plan.end(cfg, e-1)
		}
		m.pass(e, passStart, plan.end(cfg, e))

		var in *epochReader
		if e > 0 {
			var err error
			in, err = openEpochReader(cfg, plan, e-1, lo, hi)
			if err != nil {
				return err
			}
		}
		var out *epochWriter
		if !final {
			var err error
			out, err = newEpochWriter(cfg, plan, e, lo, hi)
			if err != nil {
				if in != nil {
					in.close()
				}
				return err
			}
		}

		var feed func(idx int) ([]byte, error)
		if in != nil {
			feed = in.read
		}
		work := func(idx int, blob []byte, rg *rig) outcome {
			return simulate(cfg, plan, e, idx, blob, rg)
		}
		reduce := func(idx int, o outcome) error {
			if final {
				if err := accept(&cfg, agg, *o.res); err != nil {
					return err
				}
				return m.device()
			}
			if err := out.add(idx, o.kind, o.blob); err != nil {
				return err
			}
			return m.device()
		}

		err := pass(cfg, workers, lo, hi, feed, work, reduce)
		if in != nil {
			in.close()
		}
		if err != nil {
			if out != nil {
				out.abort()
			}
			return err
		}
		if out != nil {
			if err := out.finish(hi); err != nil {
				return err
			}
			if err := m.checkpoint(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// simulate is the one device path: it advances device idx through epoch
// e of the plan on rig rg. Epoch 0 builds the device and runs it from
// t = 0; later epochs rebuild it and overlay blob, its record from epoch
// e−1, unless that record is a dead device's final result.
func simulate(cfg Config, plan epochPlan, e, idx int, blob []byte, rg *rig) outcome {
	final := e == plan.count-1
	if e > 0 {
		if o, done := passThrough(blob, e, final); done {
			return o
		}
	}
	d, res, err := buildDevice(cfg, idx, rg)
	if err != nil {
		return outcome{err: err}
	}
	if e == 0 {
		d.Kernel.Run(plan.end(cfg, e))
	} else {
		if err := restoreDevice(d, blob); err != nil {
			return outcome{err: err}
		}
		d.Kernel.ResumeRun(plan.end(cfg, e))
	}
	return concludeEpoch(d, res, final)
}

// passThrough settles a carried record that needs no simulation: a
// missing record is an error, and a device that died in an earlier
// epoch passes its final result through (decoded on the aggregating
// pass). done is false for a live device's snapshot. Keeping this out
// of simulate keeps the device path's stack frame small.
func passThrough(blob []byte, e int, final bool) (o outcome, done bool) {
	if blob == nil {
		return outcome{err: fmt.Errorf("missing epoch %d snapshot", e-1)}, true
	}
	kind, err := blobKind(blob)
	switch {
	case err != nil:
		return outcome{err: err}, true
	case kind != "fleet-result":
		return outcome{}, false
	case final:
		res, err := decodeResult(blob)
		return outcome{res: &res, err: err}, true
	}
	return outcome{blob: blob, kind: recResult}, true
}

// concludeEpoch finishes a device's epoch: dead or final-epoch devices
// extract their result; survivors snapshot for the next epoch.
func concludeEpoch(d *Device, res *DeviceResult, final bool) outcome {
	if res.Died || final {
		extractResult(d, res)
		if final {
			return outcome{res: res}
		}
		blob, err := encodeResult(*res)
		return outcome{blob: blob, kind: recResult, err: err}
	}
	blob, err := snapshotDevice(d)
	return outcome{blob: blob, kind: recSnapshot, err: err}
}
