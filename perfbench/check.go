package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/protogen"
	"repro/internal/repair"
	"repro/internal/spec"
	"repro/internal/verify"
	"repro/internal/workloads"
)

const (
	// spillBudget is the robust drop-1 job's memory budget: most of its
	// states spill.
	spillBudget = 64 << 20
	// smallBudget makes the 62k-state drop-0 check spill for the
	// in-RAM versus spilled cross-check.
	smallBudget = 1 << 20
)

// refinedPQ is PQ refined with or without hardening, plus the checker
// configuration its abort counters need.
type refinedPQ struct {
	sys  *spec.System
	vcfg verify.Config
}

func newRefinedPQ(robust bool, workers int) (refinedPQ, error) {
	sys, _ := workloads.PQ()
	rep, err := core.Synthesize(sys, core.Options{Robust: robust, Workers: workers})
	if err != nil {
		return refinedPQ{}, err
	}
	vcfg := verify.Config{Workers: workers}
	for _, br := range rep.Buses {
		vcfg.AbortVars = append(vcfg.AbortVars, br.Ref.AbortKeys()...)
	}
	return refinedPQ{sys, vcfg}, nil
}

type checkInputs struct {
	robust, baseline refinedPQ
	solo             *spec.System
	soloCost         *repair.CostModel
}

func checkSetup(workers int) (*checkInputs, error) {
	robust, err := newRefinedPQ(true, workers)
	if err != nil {
		return nil, err
	}
	baseline, err := newRefinedPQ(false, workers)
	if err != nil {
		return nil, err
	}
	solo, bus := workloads.PQSolo()
	in := &checkInputs{
		robust:   robust,
		baseline: baseline,
		solo:     solo,
		soloCost: &repair.CostModel{Channels: bus.Channels, Width: bus.Width, Est: estimate.New(solo.Channels)},
	}
	// Warm-up: a bounded drop-0 check.
	warm := robust.vcfg
	warm.MaxStates = 20_000
	if _, err := verify.Check(robust.sys, warm); err != nil {
		return nil, err
	}
	return in, nil
}

// checkJob is one verification job of a round.
type checkJob struct {
	name string
	run  func(tr *tracer, op int64) (*jobResult, error)
}

type jobResult struct {
	rep    *verify.Report // the job's (final) verify report
	repair *repair.Result
	states int // states stored across the job's checks
}

func runCheck(rc *runCtx) (*outcome, error) {
	in, setups, err := setupTimes(func() (*checkInputs, error) { return checkSetup(rc.workers) })
	if err != nil {
		return nil, err
	}
	out := &outcome{setups: setups, detail: map[string]float64{}}
	var tr *tracer
	if rc.traced {
		tr = newTracer()
	}
	depth := 0
	checkOne := func(tr *tracer, op int64, sys *spec.System, cfg verify.Config) (*jobResult, error) {
		root := tr.begin("check.op", -1, op)
		defer tr.end(root)
		var ac *allocCounter
		var a0 allocs
		if tr != nil {
			ac = newAllocCounter()
			a0 = ac.read()
		}
		id := tr.begin("verify.check", root, op)
		rep, err := verify.Check(sys, cfg)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			d := ac.read().sub(a0)
			tr.add("verify.alloc_bytes", float64(d.bytes))
			tr.add("verify.allocs", float64(d.objects))
			tr.add("verify.states", float64(rep.States))
			tr.add("verify.transitions", float64(rep.Transitions))
			tr.add("verify.spilled_states", float64(rep.SpilledStates))
			tr.add("verify.spill_mb", float64(rep.SpillBytes)/(1<<20))
			depth = max(depth, rep.Depth)
		}
		return &jobResult{rep: rep, states: rep.States}, nil
	}
	spill := in.robust.vcfg
	spill.MaxDrops, spill.MaxStates, spill.MemBudget, spill.SpillDir = 1, 1_500_000, spillBudget, rc.scratch
	baseline := in.baseline.vcfg
	baseline.MaxDrops = 1
	jobs := []checkJob{
		{"robust-drop0-ram", func(tr *tracer, op int64) (*jobResult, error) {
			return checkOne(tr, op, in.robust.sys, in.robust.vcfg)
		}},
		{"robust-drop1-spill", func(tr *tracer, op int64) (*jobResult, error) {
			return checkOne(tr, op, in.robust.sys, spill)
		}},
		{"baseline-drop1", func(tr *tracer, op int64) (*jobResult, error) {
			return checkOne(tr, op, in.baseline.sys, baseline)
		}},
		{"repair-half-pqsolo", func(tr *tracer, op int64) (*jobResult, error) {
			return repairSolo(tr, op, in, rc.workers)
		}},
	}

	last := make([]*jobResult, len(jobs))
	jobTime := make([]time.Duration, len(jobs))
	jobStates := make([]int, len(jobs))
	var op int64
	rounds := newRounds(rc, tr)
	for rounds.next() {
		rtr := rounds.tracer()
		for i, j := range jobs {
			op++
			out.attempted++
			t0 := time.Now()
			res, err := j.run(rtr, op)
			d := time.Since(t0)
			if err != nil {
				out.fail(fmt.Sprintf("%s: %v", j.name, err))
				continue
			}
			jobTime[i] += d
			jobStates[i] += res.states
			rounds.did(float64(res.states))
			last[i] = res
			bookJudgement(out, j.name, res)
		}
	}
	out.elapsed = rounds.elapsed()
	out.workPerCPU = rounds.perCPU()
	out.peakRSS = rounds.peakRSS
	rate := func(i int) float64 { return float64(jobStates[i]) / jobTime[i].Seconds() }
	out.detail["verify_states_per_s"] = rate(0)
	out.detail["spill_states_per_s"] = rate(1)
	out.detail["baseline_states_per_s"] = rate(2)
	if n := rounds.nPlain + rounds.nTraced; n > 0 {
		out.detail["repair_s"] = jobTime[3].Seconds() / float64(n)
	}

	checkChecks(rc, in, jobs, last, out)
	if tr != nil {
		m := rounds.layerMetrics()
		if s := m["verify.states"]; s > 0 {
			m["verify.states_per_transition"] = s / m["verify.transitions"]
			m["verify.alloc_bytes_per_state"] = m["verify.alloc_bytes"] / s
			m["verify.allocs_per_state"] = m["verify.allocs"] / s
		}
		m["verify.depth"] = float64(depth)
		// The builder's whole time (clone + protogen) is the build
		// time; everything else in the loop is verification.
		m["repair.build_s"] = tr.totalTime("repair.build").Seconds()
		m["repair.verify_s"] = m["repair.run_s"]
		out.layer = m
	}
	return out, nil
}

// repairSolo runs the escalating repair of half-handshake PQSolo at
// drop budget 1. The builder clones the unrefined system and generates
// the candidate protocol; its span is the repair's build time, and the
// rest of the loop is verification.
func repairSolo(tr *tracer, op int64, in *checkInputs, workers int) (*jobResult, error) {
	root := tr.begin("repair.run", -1, op)
	defer tr.end(root)
	build := func(cfg protogen.Config) (*spec.System, []string, error) {
		b := tr.begin("repair.build", root, op)
		defer tr.end(b)
		id := tr.begin("spec.clone", b, op)
		fresh := spec.Clone(in.solo)
		tr.end(id)
		id = tr.begin("protogen.generate", b, op)
		ref, err := protogen.Generate(fresh, fresh.Buses[0], cfg)
		tr.end(id)
		if err != nil {
			return nil, nil, err
		}
		tr.add("protogen.rewritten_stmts", float64(ref.RewrittenStmts))
		return fresh, ref.AbortKeys(), nil
	}
	res, err := repair.Run(build, protogen.Config{Protocol: spec.HalfHandshake}, repair.Config{
		Verify: verify.Config{MaxDrops: 1, Workers: workers},
		Cost:   in.soloCost,
	})
	if err != nil {
		return nil, err
	}
	states := 0
	for _, it := range res.Iterations {
		states += it.States
	}
	tr.add("repair.iterations", float64(len(res.Iterations)))
	tr.add("repair.states_total", float64(states))
	return &jobResult{rep: res.Report, repair: res, states: states}, nil
}

// judgeJob checks a job's verdict against what the protocol design
// says it must be.
func judgeJob(name string, res *jobResult) error {
	rep := res.rep
	deadlocks := 0
	for _, v := range rep.Violations {
		if v.Kind == verify.Deadlock {
			deadlocks++
		}
	}
	switch name {
	case "robust-drop0-ram":
		if !rep.Clean() {
			return fmt.Errorf("robust PQ without drops is not clean: %d violations, incomplete %q",
				len(rep.Violations), rep.IncompleteReason)
		}
	case "baseline-drop1":
		if deadlocks == 0 {
			return fmt.Errorf("baseline PQ with one dropped strobe shows no deadlock")
		}
	case "robust-drop1-spill":
		if deadlocks > 0 {
			return fmt.Errorf("robust PQ deadlocks under one dropped strobe")
		}
		if rep.Incomplete {
			return fmt.Errorf("robust PQ at drop 1 is not exhaustive: %s", rep.IncompleteReason)
		}
		return checkRobustDrop1(rep.States)
	case "repair-half-pqsolo":
		if !res.repair.Verified() {
			return fmt.Errorf("repair did not reach a clean exhaustive proof:\n%s", res.repair.Format())
		}
	}
	return nil
}

// bookJudgement judges a job's result. A short robust drop-1 count, the
// known dedup-key fault, fails the op on every run; any other wrong
// verdict is a failed output check.
func bookJudgement(out *outcome, name string, res *jobResult) {
	err := judgeJob(name, res)
	switch {
	case err == nil:
	case errors.Is(err, errDedupKey):
		out.fail(fmt.Sprintf("%s: %v", name, err))
	default:
		out.checkf("%s: %v", name, err)
	}
}

// checkChecks runs the check workload's output checks outside the
// timed window, on the last round's results.
func checkChecks(rc *runCtx, in *checkInputs, jobs []checkJob, last []*jobResult, out *outcome) {
	for i, j := range jobs {
		if last[i] == nil {
			out.checkf("%s: never completed", j.name)
			return
		}
	}
	// Every deadlock and corruption counterexample replays through the
	// simulator and reproduces its violation.
	replayed := 0
	for i, j := range jobs[:3] {
		for _, v := range last[i].rep.Violations {
			if v.Kind != verify.Deadlock && v.Kind != verify.Corruption {
				continue
			}
			if v.Cex == nil {
				out.checkf("%s: %s without a counterexample", j.name, v.Kind)
				continue
			}
			r, err := v.Cex.Replay()
			if err != nil {
				out.checkf("%s: replay of %s: %v", j.name, v.Kind, err)
				continue
			}
			if !r.Reproduced {
				out.checkf("%s: replay of %s did not reproduce it: %s", j.name, v.Kind, r.Outcome)
			}
			replayed++
		}
	}
	out.detail["counterexamples_replayed"] = float64(replayed)
	if replayed == 0 {
		out.checkf("no counterexample was replayed")
	}

	// The repaired PQSolo stays clean without partial-order reduction.
	res := last[3].repair
	fresh := spec.Clone(in.solo)
	ref, err := protogen.Generate(fresh, fresh.Buses[0], res.Config)
	if err != nil {
		out.checkf("repaired PQSolo: %v", err)
	} else {
		rep, err := verify.Check(fresh, verify.Config{MaxDrops: 1, NoReduction: true, AbortVars: ref.AbortKeys(), Workers: rc.workers})
		switch {
		case err != nil:
			out.checkf("repaired PQSolo without reduction: %v", err)
		case !rep.Clean():
			out.checkf("repaired PQSolo is not clean without partial-order reduction: %d violations, incomplete %q",
				len(rep.Violations), rep.IncompleteReason)
		}
	}

	// Drop 0 gives the same counts and fingerprint in RAM as spilled.
	ram := last[0].rep
	small := in.robust.vcfg
	small.MemBudget, small.SpillDir = smallBudget, rc.scratch
	sp, err := verify.Check(in.robust.sys, small)
	if err != nil {
		out.checkf("drop 0 under %d MiB: %v", smallBudget>>20, err)
	} else if err := spillInvariant(ram.States, sp.States, ram.Transitions, sp.Transitions,
		ram.Fingerprint, sp.Fingerprint, sp.SpilledStates); err != nil {
		out.checkf("drop 0: %v", err)
	}
}
