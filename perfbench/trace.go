package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Times are nanoseconds since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for an operation root
	Run    int    `json:"run"`    // operation id shared by every span of one operation
}

// tracer keeps spans in memory; write dumps them when the benchmark ends.
// Safe for concurrent use (the served-mix clients trace in parallel).
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the current trace time.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, run int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: -1, Parent: parent, Run: run})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// record adds a closed span whose bounds the caller measured.
func (t *tracer) record(name string, parent, run int, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Run: run})
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time in seconds — each
// span's duration minus the part of it its child spans cover — plus the
// summed duration of the operation roots and the part of it covered by their
// children. Only closed spans count.
func (t *tracer) selfTimes() (self map[string]float64, rootWall, rootCovered float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self = map[string]float64{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		dur := s.End - s.Start
		covered := t.coveredLocked(s, children[i])
		self[s.Name] += float64(dur-covered) / 1e9
		if s.Parent < 0 {
			rootWall += float64(dur) / 1e9
			rootCovered += float64(covered) / 1e9
		}
	}
	return self, rootWall, rootCovered
}

// coveredLocked is the length of the union of the child intervals clipped
// to the parent's interval.
func (t *tracer) coveredLocked(p span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := t.spans[k]
		a, b := max(c.Start, p.Start), min(c.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// coverageGate is the share of traced wall the stage spans must account for.
const coverageGate = 0.95

// addCoverage reports bench.stage_coverage_ratio: the share of the traced
// operations' wall time that their stage spans account for. A traced run
// below the gate fails.
func (o *outcome) addCoverage(t *tracer) {
	_, wall, covered := t.selfTimes()
	c := ratio(covered, wall)
	o.add("bench.stage_coverage_ratio", "ratio", c, fmt.Sprintf("%.3f s of %.3f s traced wall", covered, wall))
	if c < coverageGate {
		o.fail("stage coverage %.3f is below the %.2f gate", c, coverageGate)
	}
}

// write dumps every span as one JSON document per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
