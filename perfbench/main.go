// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload per process — synth, simulate, check or serve — for a
// fixed window, checks the program's outputs, and prints one JSON
// result as the last line of standard output:
//
//	bash perfbench/run.sh --workload synth --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics taken from spans the
// benchmark records around its calls into each layer. The seed makes
// the inputs; the program under test only sees the generated inputs.
//
//	perfbench steady [-runs 10] [-seconds 20] [-workloads a,b]
//
// runs two interleaved sets of runs of every workload, each run in a
// fresh process, and prints each metric's median, quartiles and the
// difference between the two sets (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// procStart approximates process start: package initialization runs
// before main, right after the runtime starts.
var procStart = time.Now()

// metricDef declares one metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
}

// endToEnd lists the metrics of an untraced run. Every workload reports
// all of them; README.md says what a unit of work is in each. Times are
// the process's CPU time, which leaves out what the hypervisor takes.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"work_per_cpu_s", "work/cpu-s", "higher"},
}

// perLayer lists the metrics of a traced run. Times are self times
// summed over the traced rounds; counts are totals over the same
// rounds. A layer a workload never calls reads 0 on that workload.
var perLayer = []metricDef{
	{"hdl.parse_s", "s", "lower"},
	{"hdl.source_bytes", "B", "higher"},
	{"hdl.alloc_bytes", "B", "lower"},
	{"partition.derive_s", "s", "lower"},
	{"partition.group_s", "s", "lower"},
	{"partition.channels", "count", "higher"},
	{"estimate.new_s", "s", "lower"},
	{"busgen.generate_s", "s", "lower"},
	{"busgen.widths", "count", "higher"},
	{"protogen.generate_s", "s", "lower"},
	{"protogen.rewritten_stmts", "count", "higher"},
	{"protogen.alloc_bytes", "B", "lower"},
	{"vhdlgen.emit_s", "s", "lower"},
	{"vhdlgen.bytes", "B", "higher"},
	{"spec.hash_s", "s", "lower"},
	{"spec.clone_s", "s", "lower"},
	{"sim.new_s", "s", "lower"},
	{"sim.run_s", "s", "lower"},
	{"sim.clocks", "count", "higher"},
	{"sim.steps", "count", "higher"},
	{"sim.deltas", "count", "higher"},
	{"sim.alloc_bytes_per_clock", "B/clock", "lower"},
	{"fault.campaign_s", "s", "lower"},
	{"fault.runs", "count", "higher"},
	{"fault.alloc_bytes_per_run", "B/run", "lower"},
	{"fault.allocs_per_run", "allocs/run", "lower"},
	{"fault.survived", "count", "higher"},
	{"fault.aborted", "count", "higher"},
	{"fault.corrupted", "count", "lower"},
	{"fault.deadlocked", "count", "lower"},
	{"verify.check_s", "s", "lower"},
	{"verify.states", "count", "higher"},
	{"verify.transitions", "count", "higher"},
	{"verify.states_per_transition", "ratio", "higher"},
	{"verify.alloc_bytes_per_state", "B/state", "lower"},
	{"verify.allocs_per_state", "allocs/state", "lower"},
	{"verify.spilled_states", "count", "higher"},
	{"verify.spill_mb", "MiB", "lower"},
	{"verify.depth", "count", "higher"},
	{"repair.iterations", "count", "lower"},
	{"repair.states_total", "count", "higher"},
	{"repair.build_s", "s", "lower"},
	{"repair.verify_s", "s", "lower"},
	{"explore.sweep_s", "s", "lower"},
	{"explore.points", "count", "higher"},
	{"serve.hit_p50_ms", "ms", "lower"},
	{"serve.miss_p50_ms", "ms", "lower"},
	{"serve.hits", "count", "higher"},
	{"serve.misses", "count", "higher"},
	{"serve.dedups", "count", "lower"},
	{"serve.hit_ratio", "ratio", "higher"},
	{"serve.late_p99_ms", "ms", "lower"},
	{"runtime.gc_cpu_s", "s", "lower"},
	{"runtime.alloc_bytes", "B", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.spans", "count", "higher"},
}

// runCtx is what a workload gets from the command line.
type runCtx struct {
	name    string
	seed    int64
	window  time.Duration
	traced  bool
	workers int    // goroutines for the engine's own parallelism
	scratch string // per-run scratch directory inside the checkout
}

// outcome is what a workload reports back.
type outcome struct {
	setups     []float64 // CPU seconds of each set-up repetition
	attempted  int
	failed     int
	failures   []string // why each failed op failed (deduplicated)
	checkErrs  []string // output checks that did not hold
	workPerCPU float64  // work units per CPU second over the timed window
	peakRSS    float64  // MiB, when the timed window ended
	elapsed    time.Duration
	// detail holds the workload's own named figures (the per-kernel
	// and per-job rates README.md tabulates); printed to stderr.
	detail map[string]float64
	// layer holds the per-layer metrics of a traced run.
	layer map[string]float64
}

func (o *outcome) fail(msg string) {
	o.failed++
	for _, f := range o.failures {
		if f == msg {
			return
		}
	}
	o.failures = append(o.failures, msg)
}

func (o *outcome) checkf(format string, args ...any) {
	o.checkErrs = append(o.checkErrs, fmt.Sprintf(format, args...))
}

var runners = map[string]func(*runCtx) (*outcome, error){
	"synth":    runSynth,
	"simulate": runSimulate,
	"check":    runCheck,
	"serve":    runServe,
}

// setupReps is how many times each workload sets up; setup_s is the
// median. The first repetition counts from process start.
const setupReps = 5

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench steady:", err)
			os.Exit(1)
		}
		return
	}
	wl := flag.String("workload", "", "synth | simulate | check | serve")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 20, "length of the timed window")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	run, ok := runners[*wl]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload synth|simulate|check|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// The working directory is the checkout's root (run.sh makes sure);
	// scratch files stay under its .bench_build.
	tmp := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: scratch directory:", err)
		os.Exit(1)
	}
	scratch, err := os.MkdirTemp(tmp, *wl+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: scratch directory:", err)
		os.Exit(1)
	}
	rc := &runCtx{
		name:    *wl,
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		workers: runtime.NumCPU(),
		scratch: scratch,
	}
	out, err := run(rc)
	os.RemoveAll(scratch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *wl, err)
		os.Exit(1)
	}
	report(*wl, rc, out)
}

func report(wl string, rc *runCtx, out *outcome) {
	metricsOut := make(map[string]map[string]any)
	put := func(d metricDef, v float64) {
		metricsOut[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	if rc.traced {
		for _, d := range perLayer {
			put(d, out.layer[d.name])
		}
	} else {
		vals := map[string]float64{
			"setup_s":        median(out.setups),
			"peak_rss_mb":    out.peakRSS,
			"work_per_cpu_s": out.workPerCPU,
		}
		for _, d := range endToEnd {
			put(d, vals[d.name])
		}
	}
	for _, msg := range out.failures {
		fmt.Fprintf(os.Stderr, "failed op: %s\n", msg)
	}
	for _, msg := range out.checkErrs {
		fmt.Fprintf(os.Stderr, "check failed: %s\n", msg)
	}
	var b strings.Builder
	for _, k := range sortedKeys(out.detail) {
		fmt.Fprintf(&b, "  %-28s %.6g\n", k, out.detail[k])
	}
	fmt.Fprintf(os.Stderr, "%s: %d ops attempted, %d failed over %.2fs\n%s",
		wl, out.attempted, out.failed, out.elapsed.Seconds(), b.String())
	d, _ := json.Marshal(out.detail)
	fmt.Fprintf(os.Stderr, "detail %s\n", d)
	res := map[string]any{
		"correct":   len(out.checkErrs) == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metricsOut,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// peakRSSMiB is the process's peak resident set.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setupTimes runs fn setupReps times and returns the CPU seconds of
// each; the first counts from process start. The last repetition's
// product is the one the workload uses.
func setupTimes[T any](fn func() (T, error)) (T, []float64, error) {
	var last T
	var cpus []float64
	cpu0 := 0.0
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			cpu0 = processCPUSeconds()
		}
		v, err := fn()
		if err != nil {
			return last, nil, err
		}
		cpus = append(cpus, processCPUSeconds()-cpu0)
		last = v
	}
	return last, cpus, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantiles cuts data into n intervals of equal probability and
// returns the n-1 cut points, as Python's statistics.quantiles(data, n)
// does with its default "exclusive" method.
func quantiles(data []float64, n int) []float64 {
	q := make([]float64, n-1)
	ld := len(data)
	if ld < 2 {
		if ld == 1 {
			for i := range q {
				q[i] = data[0]
			}
		}
		return q
	}
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / float64(n)
	}
	return q
}

// p99 is the 99th percentile of xs.
func p99(xs []float64) float64 { return quantiles(xs, 100)[98] }

// processCPUSeconds is the user and system CPU time the process used.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
