package main

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/coord/delivery"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got, _ := quantile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if _, ok := quantile(nil, 50); ok {
		t.Error("quantile of no samples reported a value")
	}
}

// The tail is the highest whole percentile, capped at 99, that leaves
// at least ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		pct  int
		tail bool
	}{{0, 0, false}, {19, 0, false}, {20, 50, true}, {21, 52, true}, {100, 90, true}, {250, 96, true}, {1000, 99, true}, {50000, 99, true}} {
		pct, ok := tailPct(c.n)
		if ok != c.tail || pct != c.pct {
			t.Errorf("tailPct(%d) = %d, %v; want %d, %v", c.n, pct, ok, c.pct, c.tail)
			continue
		}
		if !ok {
			continue
		}
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v, _ := quantile(xs, float64(pct))
		if beyond := c.n - 1 - int(v); beyond < 10 {
			t.Errorf("n=%d: p%d leaves %d samples beyond it", c.n, pct, beyond)
		}
	}
}

func TestTimingReportsMedianTailAndCount(t *testing.T) {
	m := newMetricSet()
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	m.timing("coord.claim_ms", "ms", xs, true)
	want := map[string]float64{"coord.claim_ms.p50": 50, "coord.claim_ms.tail": 90, "coord.claim_ms.n": 100}
	for name, v := range want {
		if got := m.values[name].Value; got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	m.timing("coord.heartbeat_ms", "ms", xs[:5], true)
	if _, ok := m.values["coord.heartbeat_ms.tail"]; ok {
		t.Error("5 samples produced a tail")
	}
	if _, ok := m.absent["coord.heartbeat_ms.tail"]; !ok {
		t.Error("missing tail not explained")
	}
}

func TestMetricNameValidation(t *testing.T) {
	for _, ok := range []string{"setup_s", "fleet.device_ms.adv-lax.p50", "9lives", "a"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	long := fmt.Sprintf("%065d", 0)
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "ms%", "é", long} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	m := newMetricSet()
	m.set("fleet.device_ms.bad bucket.p50", "ms", 1)
	if m.check() == nil {
		t.Error("check accepted an illegal name")
	}
	for _, d := range append(endToEndMetrics(), perLayerMetrics()...) {
		if !validName(d.name) {
			t.Errorf("declared metric %q has an illegal name", d.name)
		}
	}
}

func TestDeliveryOutcomeAccounting(t *testing.T) {
	for _, c := range []struct {
		err    error
		failed bool
	}{
		{nil, false},
		{delivery.ErrNoWork, false},
		{fmt.Errorf("claim: %w", delivery.ErrNoWork), false},
		{delivery.ErrDone, false},
		{delivery.ErrLeaseLost, true},
		{errors.New("connection refused"), true},
	} {
		if got := callFailed(c.err); got != c.failed {
			t.Errorf("callFailed(%v) = %v, want %v", c.err, got, c.failed)
		}
	}
}

func TestErrorRateAccounting(t *testing.T) {
	o := newUnitObs(0, nil)
	o.calls.Store(40)
	o.callFails.Store(1)
	o.conservation.Store(2)
	var tl tally
	tl.add(unitResult{o: o, devices: 10})
	if tl.attempted() != 50 || tl.failed() != 3 {
		t.Fatalf("attempted %d failed %d, want 50 and 3", tl.attempted(), tl.failed())
	}
	tl.add(unitResult{o: newUnitObs(1, nil), devices: 10, err: errors.New("device 3: boom")})
	if tl.failed() != 13 {
		t.Fatalf("a failed unit should fail all its devices: failed %d, want 13", tl.failed())
	}
	tl.md5Mismatch = true
	if tl.failed() != 21 {
		t.Fatalf("an md5 mismatch should fail every device: failed %d, want 21", tl.failed())
	}
	if got, want := tl.errorRate(), 21.0/60; got != want {
		t.Fatalf("error rate %v, want %v", got, want)
	}
}

func TestSelfTimeRollup(t *testing.T) {
	rec := newRecorder()
	at := func(ms int) time.Time { return rec.origin.Add(time.Duration(ms) * time.Millisecond) }
	task, call, co := rec.id(), rec.id(), rec.id()
	rec.add(task, 0, 0, "runner.task", "runner-0 shard 0", "", at(0), at(20))
	rec.add(call, task, 0, "delivery.complete", "runner-0", "ok", at(12), at(20))
	rec.add(co, call, 0, "coord.complete", "runner-0", "ok", at(14), at(17))
	self := selfTime(rec.snapshot())
	for id, want := range map[int64]time.Duration{task: 12 * time.Millisecond, call: 5 * time.Millisecond, co: 3 * time.Millisecond} {
		if self[id] != want {
			t.Errorf("span %d self %v, want %v", id, self[id], want)
		}
	}
	if got := transportMS(rec.snapshot(), "delivery.complete"); len(got) != 1 || got[0] != 5 {
		t.Errorf("transport time %v, want [5]", got)
	}
	// Overlapping children (parallel devices under one unit) are
	// subtracted once.
	unit, d1, d2 := rec.id(), rec.id(), rec.id()
	rec.add(unit, 0, 1, "bench.unit", "", "", at(0), at(10))
	rec.add(d1, unit, 1, "fleet.device", "0", "", at(1), at(6))
	rec.add(d2, unit, 1, "fleet.device", "1", "", at(2), at(8))
	if got := selfTime(rec.snapshot())[unit]; got != 3*time.Millisecond {
		t.Errorf("unit self %v, want 3ms", got)
	}
	layers := layerSelf(rec.snapshot())
	if layers["delivery"] != 0.005 || layers["coord"] != 0.003 || layers["runner"] != 0.012 || layers["bench"] != 0.003 {
		t.Errorf("layer self times %v", layers)
	}
}
