package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// rootSpan names the span that covers one traced operation end to end. Its
// self time — the part no layer span covers — is the unattributed time.
const rootSpan = "query"

// span is one timed call from the benchmark into a layer. Layer is the
// name's prefix before the first dot ("core.execute" belongs to core).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Query  int64  `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory for the whole run; nothing is written until
// the run ends. A nil *tracer records nothing, so untraced runs pay one
// branch per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(query int64, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Query: query, Name: name, Start: now, End: now})
	return id
}

// beginAt opens a span that started at an earlier instant, such as a root
// timed from an arrival's due time.
func (t *tracer) beginAt(query int64, parent int, name string, at time.Time) int {
	if t == nil {
		return -1
	}
	id := t.begin(query, parent, name)
	t.mu.Lock()
	t.spans[id].Start = int64(at.Sub(t.epoch))
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do wraps f in a span.
func (t *tracer) do(query int64, parent int, name string, f func()) {
	id := t.begin(query, parent, name)
	f()
	t.end(id)
}

// breakdown is the trace reduced per layer.
type breakdown struct {
	Roots int
	// RootNs totals the root spans' durations; UnattributedNs totals their
	// self time.
	RootNs, UnattributedNs int64
	// SelfNs is each layer's self time: its spans' durations minus the part
	// of each covered by its child spans.
	SelfNs map[string]int64
}

// selfPerRootMs is a layer's self time averaged over root spans.
func (b *breakdown) selfPerRootMs(layer string) float64 {
	return ratio(float64(b.SelfNs[layer])/1e6, float64(b.Roots))
}

func (b *breakdown) unattributedShare() float64 {
	return ratio(float64(b.UnattributedNs), float64(b.RootNs))
}

// reduce derives per-layer self time from the recorded spans.
func (t *tracer) reduce() *breakdown {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	b := &breakdown{SelfNs: make(map[string]int64)}
	for _, s := range spans {
		dur := s.End - s.Start
		self := dur - covered(s, children[s.ID])
		if s.Parent < 0 && s.Name == rootSpan {
			b.Roots++
			b.RootNs += dur
			b.UnattributedNs += self
			continue
		}
		b.SelfNs[s.layer()] += self
	}
	return b
}

// covered is the length of the union of the children's intervals clipped
// to the parent's. Children recorded from different goroutines may overlap,
// so the union, not the sum, is subtracted.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// write dumps every span as JSON to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	buf, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
