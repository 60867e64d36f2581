package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs, which it sorts in place. An empty slice has no quantile.
func quantile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	k := int(math.Ceil(p / 100 * float64(len(xs))))
	if k < 1 {
		k = 1
	}
	return xs[k-1], true
}

// median is the nearest-rank 50th percentile of xs (0 when empty).
func median(xs []float64) float64 {
	v, _ := quantile(xs, 50)
	return v
}

// tailPct is the percentile a timing's tail is reported at: the highest
// whole percentile, at most 99, that leaves at least ten samples beyond
// it. With fewer than 20 samples that percentile would fall below the
// median, so there is no tail (ok false).
func tailPct(n int) (pct int, ok bool) {
	if n < 20 {
		return 0, false
	}
	pct = 100 * (n - 10) / n
	if pct > 99 {
		pct = 99
	}
	return pct, true
}

// validName reports whether s is a legal metric name: 1 to 64
// characters from [A-Za-z0-9_.-], starting with a letter or digit.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i, c := range s {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if alnum || i > 0 && (c == '_' || c == '.' || c == '-') {
			continue
		}
		return false
	}
	return true
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is a run's named figures, plus the declared metrics it
// could not measure and why.
type metricSet struct {
	values map[string]metric
	absent map[string]string
}

func newMetricSet() *metricSet {
	return &metricSet{values: map[string]metric{}, absent: map[string]string{}}
}

func (m *metricSet) set(name, unit string, v float64) {
	m.values[name] = metric{Value: v, Unit: unit}
}

// median records the median of xs under name, or notes that there
// were no samples.
func (m *metricSet) median(name, unit string, xs []float64) {
	if len(xs) == 0 {
		m.absent[name] = "no samples"
		return
	}
	m.set(name, unit, median(xs))
}

// timing records a sample of durations (in the unit's scale) under
// name as name.p50, name.tail and name.n. The tail is the percentile
// tailPct picks; the record line says which one it was.
func (m *metricSet) timing(name, unit string, xs []float64, withTail bool) {
	n := len(xs)
	m.set(name+".n", "count", float64(n))
	if p50, ok := quantile(xs, 50); ok {
		m.set(name+".p50", unit, p50)
	} else {
		m.absent[name+".p50"] = "no samples"
	}
	if !withTail {
		return
	}
	pct, ok := tailPct(n)
	if !ok {
		m.absent[name+".tail"] = fmt.Sprintf("%d samples; a tail needs at least 20", n)
		return
	}
	v, _ := quantile(xs, float64(pct))
	m.set(name+".tail", unit, v)
	m.set(name+".tail_pct", "pct", float64(pct))
}

// check returns an error naming the first illegal metric name.
func (m *metricSet) check() error {
	for name := range m.values {
		if !validName(name) {
			return fmt.Errorf("perfbench: illegal metric name %q", name)
		}
	}
	return nil
}
