package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share an
// op id; parent indexes the enclosing span (-1 for an op's root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps spans and counts in memory; they are written out when
// the run ends. A nil *tracer records nothing, so untraced runs pay one
// nil check per layer call.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: make(map[string]float64)}
}

// begin opens a span under parent (-1 for none) and returns its id.
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add accumulates a count taken at a layer boundary.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make([][]int32, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered(t.spans, children[i], s.Start, s.End))
	}
	return out
}

// totalTime sums the durations of the spans named name, children
// included.
func (t *tracer) totalTime(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// covered is the length of the union of the child intervals, clipped
// to [lo, hi].
func covered(spans []span, kids []int32, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := spans[k]
		if c.End < 0 {
			continue
		}
		ivs = append(ivs, iv{max(c.Start, lo), min(c.End, hi)})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if v.b <= v.a {
			continue
		}
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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

// allocCounter reads the runtime's cumulative heap allocation counters.
// They are exact to within one span refill per P, which is noise next
// to the totals a layer allocates over a run.
type allocCounter struct{ s [2]metrics.Sample }

type allocs struct{ bytes, objects uint64 }

func newAllocCounter() *allocCounter {
	a := &allocCounter{}
	a.s[0].Name = "/gc/heap/allocs:bytes"
	a.s[1].Name = "/gc/heap/allocs:objects"
	return a
}

func (a *allocCounter) read() allocs {
	metrics.Read(a.s[:])
	return allocs{a.s[0].Value.Uint64(), a.s[1].Value.Uint64()}
}

func (x allocs) sub(y allocs) allocs { return allocs{x.bytes - y.bytes, x.objects - y.objects} }

// gcCPUSeconds is the runtime's estimate of CPU time spent in GC.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// heapAllocBytes is the cumulative bytes allocated on the heap.
func heapAllocBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}
