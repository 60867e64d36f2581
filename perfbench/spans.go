package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Name is
// "<layer>.<what>"; Key identifies the work it covered (a device index,
// or a runner and shard); Attr carries an outcome or a bucket. Parent
// is the id of the span that caused it (0 for a unit's root span).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Unit   int    `json:"unit"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// recorder keeps spans in memory; write emits them once, at the end of
// a run. Ids are allocated before the work starts so that a child
// recorded on another goroutine (a coordinator call served by the HTTP
// server) can name its parent (the runner's delivery call).
type recorder struct {
	origin time.Time

	mu       sync.Mutex
	next     int64
	spans    []span
	inflight map[string]int64
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), inflight: map[string]int64{}}
}

// id allocates a span id.
func (r *recorder) id() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records a finished span under a previously allocated id.
func (r *recorder) add(id, parent int64, unit int, name, key, attr string, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Unit: unit, Name: name, Key: key, Attr: attr,
		Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin)),
	})
}

// enter marks span id as the in-flight call for key until leave; the
// callee side finds its parent with current.
func (r *recorder) enter(key string, id int64) {
	r.mu.Lock()
	r.inflight[key] = id
	r.mu.Unlock()
}

func (r *recorder) leave(key string) {
	r.mu.Lock()
	delete(r.inflight, key)
	r.mu.Unlock()
}

func (r *recorder) current(key string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inflight[key]
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write emits every span as one JSON line, in start order.
func (r *recorder) write(path string) error {
	spans := r.snapshot()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is each span's duration minus the part of its interval that
// its child spans cover. Children may overlap one another (a unit's
// devices run on parallel workers), so the covered part is the union
// of their intervals, clipped to the parent's.
func selfTime(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), p.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, p.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[p.ID] = p.dur() - time.Duration(covered)
	}
	return self
}

// layerSelf rolls self time up by layer (the span name's first
// component), in seconds.
func layerSelf(spans []span) map[string]float64 {
	self := selfTime(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.layer()] += self[s.ID].Seconds()
	}
	return out
}

// spanMS collects the durations, in milliseconds, of the spans named
// name (and, when attr is non-empty, carrying that attribute).
func spanMS(spans []span, name, attr string) []float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name && (attr == "" || s.Attr == attr) {
			xs = append(xs, float64(s.dur())/float64(time.Millisecond))
		}
	}
	return xs
}

// transportMS is, for each delivery call named name, its self time in
// milliseconds: the runner-side span minus the coordinator span it
// caused.
func transportMS(spans []span, name string) []float64 {
	self := selfTime(spans)
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, float64(self[s.ID])/float64(time.Millisecond))
		}
	}
	return xs
}
