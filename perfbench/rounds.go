package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// rounds paces a closed-loop workload: it repeats whole rounds of the
// same ops until the window has passed, so every run attempts the ops in
// the same proportions. In a traced run rounds alternate untraced and
// traced, starting untraced; the per-layer metrics cover the traced
// rounds, and comparing the two kinds gives the tracing overhead.
//
// Work is counted against the process's CPU time (user plus system, all
// threads). The kernel leaves out time the hypervisor takes from the
// machine's virtual CPUs, which on a shared host moves wall-clock rates
// by tens of percent from one run to the next.
type rounds struct {
	rc          *runCtx
	tr          *tracer
	start, stop time.Time
	n           int
	beganCPU    float64
	work        float64
	// CPU seconds and count of finished rounds, by kind, and each
	// untraced round's work per CPU second.
	plainCPU, tracedCPU float64
	nPlain, nTraced     int
	rates               []float64
	roundWork           float64
	// GC CPU seconds and heap bytes allocated in the traced rounds, so
	// that the runtime figures cover the same rounds as the layers'.
	beganGC, beganAlloc   float64
	tracedGC, tracedAlloc float64
	// peakRSS is the process's peak resident set when the window ends,
	// before the output checks run.
	peakRSS float64
}

func newRounds(rc *runCtx, tr *tracer) *rounds {
	return &rounds{rc: rc, tr: tr, start: time.Now()}
}

// next finishes the current round and reports whether another starts.
// A traced run does at least one round of each kind.
func (r *rounds) next() bool {
	now, cpu := time.Now(), processCPUSeconds()
	if r.n > 0 {
		if r.tracer() != nil {
			r.tracedCPU += cpu - r.beganCPU
			r.nTraced++
			r.tracedGC += gcCPUSeconds() - r.beganGC
			r.tracedAlloc += heapAllocBytes() - r.beganAlloc
		} else {
			r.plainCPU += cpu - r.beganCPU
			r.nPlain++
			r.rates = append(r.rates, r.roundWork/(cpu-r.beganCPU))
		}
	}
	r.roundWork = 0
	minRounds := 1
	if r.tr != nil {
		minRounds = 2
	}
	if r.n >= minRounds && now.Sub(r.start) >= r.rc.window {
		r.stop = now
		r.peakRSS = peakRSSMiB()
		return false
	}
	r.n++
	if r.tracer() != nil {
		r.beganGC, r.beganAlloc = gcCPUSeconds(), heapAllocBytes()
	}
	r.beganCPU = cpu
	return true
}

// tracer is the current round's tracer: nil in untraced rounds.
func (r *rounds) tracer() *tracer {
	if r.tr == nil || r.n%2 == 1 {
		return nil
	}
	return r.tr
}

func (r *rounds) elapsed() time.Duration { return r.stop.Sub(r.start) }

// did counts work units done.
func (r *rounds) did(work float64) {
	r.work += work
	r.roundWork += work
}

// perCPU is the median over untraced rounds of the work done per CPU
// second. Every round does the same work, so a stretch of contention
// from other machines on the host moves only the rounds it hits.
func (r *rounds) perCPU() float64 { return median(r.rates) }

// perWall is the work done per wall-clock second over the window.
func (r *rounds) perWall() float64 { return r.work / r.elapsed().Seconds() }

// overheadPct compares the mean CPU time of a traced round with that of
// an untraced one.
func (r *rounds) overheadPct() float64 {
	if r.nPlain == 0 || r.nTraced == 0 {
		return 0
	}
	p := r.plainCPU / float64(r.nPlain)
	t := r.tracedCPU / float64(r.nTraced)
	return (t/p - 1) * 100
}

// layerMetrics turns the spans and counts into per-layer metrics and
// writes the spans out.
func (r *rounds) layerMetrics() map[string]float64 {
	m := spanMetrics(r.rc, r.tr)
	m["runtime.gc_cpu_s"] = r.tracedGC
	m["runtime.alloc_bytes"] = r.tracedAlloc
	m["trace.overhead_pct"] = r.overheadPct()
	return m
}

// spanMetrics sums self time per span name into "<name>_s" and copies
// the counts. The spans go to .bench_build/spans as JSON lines.
func spanMetrics(rc *runCtx, tr *tracer) map[string]float64 {
	m := make(map[string]float64)
	self := tr.selfTimes()
	for name, d := range self {
		m[name+"_s"] = d.Seconds()
	}
	for k, v := range tr.counts {
		m[k] = v
	}
	m["trace.spans"] = float64(len(tr.spans))
	dir := filepath.Join(".bench_build", "spans")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", rc.name, rc.seed))
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		err = tr.writeSpans(path)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	} else {
		fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	}
	var total time.Duration
	for _, d := range self {
		total += d
	}
	var b strings.Builder
	b.WriteString("self-time shares:")
	for _, name := range sortedKeys(self) {
		fmt.Fprintf(&b, "\n  %-22s %8.3fs %5.1f%%", name, self[name].Seconds(), 100*self[name].Seconds()/total.Seconds())
	}
	fmt.Fprintln(os.Stderr, b.String())
	return m
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
