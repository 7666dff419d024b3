package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/fault"
	"repro/internal/flc"
	"repro/internal/hdl"
	"repro/internal/protogen"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// fig7Widths are the bus widths of the paper's Fig. 7 the simulator
// cross-check runs the refined FLC at.
var fig7Widths = []int{1, 2, 4, 8, 16, 23, 24}

const (
	simEthernetFrames = 2
	// campaignRuns is the size of each fault campaign in a round.
	campaignRuns = 20_000
)

// golden is one refined system simulated fault-free through sim.New.
type golden struct {
	name  string
	sys   *spec.System
	cfg   sim.Config
	width int // Fig. 7 width, 0 for other systems
}

// campaignSys is one refined system a fault campaign runs on.
type campaignSys struct {
	name      string
	sys       *spec.System
	bus       *spec.Bus
	abortVars []string
}

type simInputs struct {
	goldens   []golden
	campaigns []campaignSys
}

func simSetup(workers int, seed int64) (*simInputs, error) {
	in := &simInputs{}
	model := estimate.DefaultModel()
	for _, w := range fig7Widths {
		f := flc.New(flc.DefaultConfig())
		if _, err := protogen.Generate(f.Sys, f.BusB(w), protogen.Config{Protocol: spec.FullHandshake}); err != nil {
			return nil, fmt.Errorf("FLC width %d: %w", w, err)
		}
		in.goldens = append(in.goldens, golden{fmt.Sprintf("flc-w%d", w), f.Sys, sim.Config{Cost: &model}, w})
	}
	text, err := os.ReadFile("testdata/dma.sys")
	if err != nil {
		return nil, err
	}
	dma, err := hdl.Parse(string(text))
	if err != nil {
		return nil, err
	}
	eth := workloads.Ethernet(simEthernetFrames)
	for _, g := range []golden{{name: "dma", sys: dma}, {name: "ethernet", sys: eth}} {
		if _, err := core.Synthesize(g.sys, core.Options{Workers: workers}); err != nil {
			return nil, fmt.Errorf("%s: %w", g.name, err)
		}
		in.goldens = append(in.goldens, g)
	}
	for _, parity := range []bool{false, true} {
		sys, _ := workloads.PQ()
		rep, err := core.Synthesize(sys, core.Options{Robust: true, Parity: parity, Workers: workers})
		if err != nil {
			return nil, err
		}
		br := rep.Buses[0]
		name := "robust-pq"
		if parity {
			name = "robust-parity-pq"
		}
		in.campaigns = append(in.campaigns, campaignSys{name, sys, br.Bus, br.Ref.AbortKeys()})
	}
	// Warm-up: the widest FLC, DMA and Ethernet simulated once, and a
	// small campaign on each system.
	for _, g := range in.goldens {
		if g.width != 0 && g.width != fig7Widths[len(fig7Widths)-1] {
			continue
		}
		if _, err := simGolden(nil, 0, g); err != nil {
			return nil, err
		}
	}
	for _, c := range in.campaigns {
		if _, err := campaign(nil, 0, c, 500, seed, workers); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// simGolden is one golden simulation: construction, then execution.
func simGolden(tr *tracer, op int64, g golden) (*sim.Result, error) {
	root := tr.begin("simulate.op", -1, op)
	defer tr.end(root)
	id := tr.begin("sim.new", root, op)
	s, err := sim.New(g.sys, g.cfg)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", g.name, err)
	}
	var a0 allocs
	var ac *allocCounter
	if tr != nil {
		ac = newAllocCounter()
		a0 = ac.read()
	}
	id = tr.begin("sim.run", root, op)
	res, err := s.Run()
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", g.name, err)
	}
	if tr != nil {
		tr.add("sim.alloc_bytes", float64(ac.read().sub(a0).bytes))
		tr.add("sim.clocks", float64(res.Clocks))
		tr.add("sim.steps", float64(res.Steps))
		tr.add("sim.deltas", float64(res.Deltas))
	}
	return res, nil
}

// campaign is one fault campaign on the pooled engine.
func campaign(tr *tracer, op int64, c campaignSys, runs int, seed int64, workers int) (*fault.Report, error) {
	root := tr.begin("simulate.op", -1, op)
	defer tr.end(root)
	var a0 allocs
	var ac *allocCounter
	if tr != nil {
		ac = newAllocCounter()
		a0 = ac.read()
	}
	id := tr.begin("fault.campaign", root, op)
	rep, err := fault.Campaign(c.sys, c.bus, fault.Config{
		Runs: runs, Seed: seed, AbortVars: c.abortVars, Workers: workers,
	})
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s campaign: %w", c.name, err)
	}
	if tr != nil {
		d := ac.read().sub(a0)
		tr.add("fault.alloc_bytes", float64(d.bytes))
		tr.add("fault.allocs", float64(d.objects))
		tr.add("fault.runs", float64(rep.Runs))
		tr.add("fault.survived", float64(rep.Totals[fault.Survived]))
		tr.add("fault.aborted", float64(rep.Totals[fault.AbortedCleanly]))
		tr.add("fault.corrupted", float64(rep.Totals[fault.Corrupted]))
		tr.add("fault.deadlocked", float64(rep.Totals[fault.Deadlocked]))
	}
	return rep, nil
}

func runSimulate(rc *runCtx) (*outcome, error) {
	in, setups, err := setupTimes(func() (*simInputs, error) { return simSetup(rc.workers, rc.seed) })
	if err != nil {
		return nil, err
	}
	out := &outcome{setups: setups, detail: map[string]float64{}}
	var tr *tracer
	if rc.traced {
		tr = newTracer()
	}
	var (
		goldenClocks       int64
		goldenT, campaignT time.Duration
		faultyRuns         int
		lastGolden         = make([]*sim.Result, len(in.goldens))
		lastReports        = make([]*fault.Report, len(in.campaigns))
		op                 int64
	)
	rounds := newRounds(rc, tr)
	for rounds.next() {
		rtr := rounds.tracer()
		for i, g := range in.goldens {
			op++
			out.attempted++
			t0 := time.Now()
			res, err := simGolden(rtr, op, g)
			d := time.Since(t0)
			if err != nil {
				out.fail(err.Error())
				continue
			}
			goldenT += d
			goldenClocks += res.Clocks
			rounds.did(1)
			lastGolden[i] = res
		}
		for i, c := range in.campaigns {
			op++
			out.attempted++
			t0 := time.Now()
			rep, err := campaign(rtr, op, c, campaignRuns, rc.seed, rc.workers)
			d := time.Since(t0)
			if err != nil {
				out.fail(err.Error())
				continue
			}
			campaignT += d
			faultyRuns += rep.Runs
			rounds.did(float64(rep.Runs))
			lastReports[i] = rep
		}
	}
	out.elapsed = rounds.elapsed()
	out.workPerCPU = rounds.perCPU()
	out.peakRSS = rounds.peakRSS
	out.detail["sim_clocks_per_s"] = float64(goldenClocks) / goldenT.Seconds()
	out.detail["campaign_runs_per_s"] = float64(faultyRuns) / campaignT.Seconds()

	simChecks(in, lastGolden, lastReports, out)
	if tr != nil {
		m := rounds.layerMetrics()
		if c := m["sim.clocks"]; c > 0 {
			m["sim.alloc_bytes_per_clock"] = m["sim.alloc_bytes"] / c
		}
		if r := m["fault.runs"]; r > 0 {
			m["fault.alloc_bytes_per_run"] = m["fault.alloc_bytes"] / r
			m["fault.allocs_per_run"] = m["fault.allocs"] / r
		}
		out.layer = m
	}
	return out, nil
}

// simChecks runs the simulate output checks outside the timed window.
func simChecks(in *simInputs, goldens []*sim.Result, reports []*fault.Report, out *outcome) {
	var widths []int
	var clocks []int64
	for i, g := range in.goldens {
		if g.width > 0 && goldens[i] != nil {
			widths = append(widths, g.width)
			clocks = append(clocks, goldens[i].Clocks)
		}
	}
	if len(widths) != len(fig7Widths) {
		out.checkf("Fig. 7: only %d of %d widths simulated", len(widths), len(fig7Widths))
	} else if err := checkFig7(widths, clocks); err != nil {
		out.checkf("Fig. 7: %v", err)
	}
	for i, c := range in.campaigns {
		rep := reports[i]
		if rep == nil {
			out.checkf("%s: no campaign completed", c.name)
			continue
		}
		sum := 0
		for _, n := range rep.Totals {
			sum += n
		}
		if sum != rep.Runs || rep.Runs != campaignRuns {
			out.checkf("%s: outcome counts sum to %d over %d runs, %d attempted", c.name, sum, rep.Runs, campaignRuns)
		}
		replayExemplars(c, rep, out)
	}
}

// replayExemplars replays each campaign exemplar alone through the
// classic kernel with its own faults and classifies it independently.
func replayExemplars(c campaignSys, rep *fault.Report, out *outcome) {
	s, err := sim.New(c.sys, sim.Config{})
	if err != nil {
		out.checkf("%s: golden: %v", c.name, err)
		return
	}
	gold, err := s.Run()
	if err != nil {
		out.checkf("%s: golden: %v", c.name, err)
		return
	}
	n := 0
	for o := fault.Survived; o <= fault.Deadlocked; o++ {
		for _, rr := range rep.Exemplars[o] {
			cfg := sim.Config{MaxClocks: 16*gold.Clocks + 4096}
			fault.NewInjector(rr.Faults).Attach(&cfg)
			s, err := sim.New(c.sys, cfg)
			if err != nil {
				out.checkf("%s: exemplar %d: %v", c.name, rr.Run, err)
				continue
			}
			res, runErr := s.Run()
			if err := checkExemplar(rr.Run, o, classifyReplay(gold.Finals, c.abortVars, res, runErr)); err != nil {
				out.checkf("%s: %v", c.name, err)
			}
			n++
		}
	}
	if n == 0 {
		out.checkf("%s: the campaign kept no exemplars to replay", c.name)
	}
	out.detail["exemplars_replayed_"+c.name] = float64(n)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
