package main

import (
	"fmt"
	"os"

	"repro/internal/busgen"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/estimate"
	"repro/internal/hdl"
	"repro/internal/partition"
	"repro/internal/protogen"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/vhdlgen"
	"repro/internal/workloads"
)

// synthInput is one .sys text and the options it is synthesized with.
type synthInput struct {
	name string
	text string
	opts core.Options
	// from is the system the text was printed from (nil for files).
	from *spec.System
	// ref is the VHDL core.Synthesize emits for the text.
	ref string
	// fig8 is the Fig. 8 design this input reproduces ("" for none).
	fig8 string
	// unordered marks a system whose behaviors share no handshakes, so
	// its abstract and refined runs are not comparable (workloads.Mesh).
	unordered bool
	gen       *busgen.Result
}

const (
	synthEthernetFrames = 2
	synthMeshSize       = 3
	synthRandomSystems  = 12
)

// fig8Constraints are the paper's three constraint sets on ch2.
var fig8Constraints = map[string][]busgen.Constraint{
	"A": {{Kind: busgen.MinPeakRate, Channel: "ch2", Value: 10, Weight: 10}},
	"B": {
		{Kind: busgen.MinPeakRate, Channel: "ch2", Value: 10, Weight: 2},
		{Kind: busgen.MinBusWidth, Value: 14, Weight: 1},
		{Kind: busgen.MaxBusWidth, Value: 18, Weight: 1},
	},
	"C": {
		{Kind: busgen.MinPeakRate, Channel: "ch2", Value: 10, Weight: 1},
		{Kind: busgen.MinBusWidth, Value: 16, Weight: 5},
		{Kind: busgen.MaxBusWidth, Value: 16, Weight: 5},
	},
}

// synthInputs builds the synth workload's inputs: the paper's designs
// from testdata, the Ethernet and Mesh workloads and seeded random
// systems, each printed to text.
func synthInputs(seed int64) ([]*synthInput, error) {
	read := func(name string) (string, error) {
		b, err := os.ReadFile("testdata/" + name)
		return string(b), err
	}
	var ins []*synthInput
	flcText, err := read("flc.sys")
	if err != nil {
		return nil, err
	}
	for _, d := range []string{"A", "B", "C"} {
		cfg := busgen.DefaultConfig()
		cfg.Constraints = fig8Constraints[d]
		ins = append(ins, &synthInput{name: "flc-" + d, text: flcText, opts: core.Options{Bus: cfg}, fig8: d})
	}
	for _, f := range []string{"pq.sys", "pqsolo.sys", "dma.sys"} {
		text, err := read(f)
		if err != nil {
			return nil, err
		}
		ins = append(ins, &synthInput{name: f, text: text})
	}
	printed := func(name string, sys *spec.System, opts core.Options) error {
		text, err := hdl.Print(sys)
		if err != nil {
			return fmt.Errorf("print %s: %w", name, err)
		}
		ins = append(ins, &synthInput{name: name, text: text, opts: opts, from: sys})
		return nil
	}
	if err := printed(fmt.Sprintf("ethernet-%d", synthEthernetFrames), workloads.Ethernet(synthEthernetFrames), core.Options{}); err != nil {
		return nil, err
	}
	if err := printed(fmt.Sprintf("mesh-%d", synthMeshSize), workloads.Mesh(synthMeshSize),
		core.Options{Grouping: partition.RateFeasible}); err != nil {
		return nil, err
	}
	ins[len(ins)-1].unordered = true
	for i := 0; i < synthRandomSystems; i++ {
		s := seed*1000 + int64(i)
		if err := printed(fmt.Sprintf("rand-%d", s), difftest.Generate(s, difftest.DefaultGenConfig()),
			core.Options{Arbitrate: true, Grouping: partition.RateFeasible}); err != nil {
			return nil, err
		}
	}
	return ins, nil
}

// synthOnce is the untraced op: parse, synthesize, emit.
func synthOnce(in *synthInput) (string, *core.Report, error) {
	sys, err := hdl.Parse(in.text)
	if err != nil {
		return "", nil, err
	}
	rep, err := core.Synthesize(sys, in.opts)
	if err != nil {
		return "", nil, err
	}
	return vhdlgen.Emit(sys), rep, nil
}

// synthWarmCycles is how many full cycles over the inputs set-up runs
// before timing starts.
const synthWarmCycles = 5

// synthSetup builds the inputs and their reference VHDL, and warms the
// path up.
func synthSetup(seed int64) ([]*synthInput, error) {
	ins, err := synthInputs(seed)
	if err != nil {
		return nil, err
	}
	for _, in := range ins {
		v, rep, err := synthOnce(in)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
		in.ref = v
		if len(rep.Buses) > 0 {
			in.gen = rep.Buses[0].Gen
		}
	}
	for i := 1; i < synthWarmCycles; i++ {
		for _, in := range ins {
			if _, _, err := synthOnce(in); err != nil {
				return nil, fmt.Errorf("%s: %w", in.name, err)
			}
		}
	}
	return ins, nil
}

func runSynth(rc *runCtx) (*outcome, error) {
	ins, setups, err := setupTimes(func() ([]*synthInput, error) { return synthSetup(rc.seed) })
	if err != nil {
		return nil, err
	}
	out := &outcome{setups: setups, detail: map[string]float64{}}
	var tr *tracer
	if rc.traced {
		tr = newTracer()
	}
	rounds := newRounds(rc, tr)
	var op int64
	for rounds.next() {
		rtr := rounds.tracer()
		for _, in := range ins {
			op++
			var v string
			var err error
			if rtr != nil {
				v, err = synthStaged(rtr, op, in)
			} else {
				v, _, err = synthOnce(in)
			}
			out.attempted++
			if err != nil {
				out.fail(fmt.Sprintf("%s: %v", in.name, err))
				continue
			}
			rounds.did(1)
			if v != in.ref {
				if rtr != nil {
					out.checkf("%s: stage-by-stage VHDL differs from core.Synthesize's", in.name)
				} else {
					out.checkf("%s: a repeated op emitted different VHDL", in.name)
				}
			}
		}
	}
	out.elapsed = rounds.elapsed()
	out.workPerCPU = rounds.perCPU()
	out.peakRSS = rounds.peakRSS
	out.detail["synth_specs_per_s"] = rounds.perWall()
	out.detail["synth_inputs"] = float64(len(ins))

	synthChecks(ins, out)
	if tr != nil {
		out.layer = rounds.layerMetrics()
	}
	return out, nil
}

// synthChecks runs the synth output checks outside the timed window.
func synthChecks(ins []*synthInput, out *outcome) {
	simulated := 0
	for _, in := range ins {
		if in.fig8 != "" {
			if in.gen == nil {
				out.checkf("%s: bus generation did not run", in.name)
			} else if err := checkFig8(fig8Row{in.fig8, in.gen.Width, in.gen.BusRate,
				in.gen.InterconnectReduction * 100, in.gen.SeparateLines}); err != nil {
				out.checkf("%v", err)
			}
		}
		if in.from != nil {
			back, err := hdl.Parse(in.text)
			if err != nil {
				out.checkf("%s: printed text does not parse: %v", in.name, err)
			} else if spec.Hash(back) != spec.Hash(in.from) {
				out.checkf("%s: printed text parses to a different spec.Hash", in.name)
			}
		}
		if in.unordered {
			continue
		}
		ok, err := refinedMatchesAbstract(in)
		if err != nil {
			out.checkf("%s: %v", in.name, err)
		}
		if ok {
			simulated++
		}
	}
	out.detail["synth_equivalence_checked"] = float64(simulated)
	// Every input but Mesh must have been simulated both ways.
	if simulated < len(ins)-1 {
		out.checkf("only %d of %d inputs were simulated abstract and refined", simulated, len(ins))
	}
}

// refinedMatchesAbstract simulates the abstract system and its
// refinement and compares their final module state. An abstract system
// the simulator cannot run to completion is not simulatable and is
// skipped (false, nil).
func refinedMatchesAbstract(in *synthInput) (bool, error) {
	abs, err := hdl.Parse(in.text)
	if err != nil {
		return false, err
	}
	cfg := sim.Config{MaxClocks: 2_000_000}
	s, err := sim.New(abs, cfg)
	if err != nil {
		return false, nil
	}
	want, err := s.Run()
	if err != nil {
		return false, nil
	}
	ref, err := hdl.Parse(in.text)
	if err != nil {
		return false, err
	}
	if _, err := core.Synthesize(ref, in.opts); err != nil {
		return false, err
	}
	s, err = sim.New(ref, cfg)
	if err != nil {
		return false, fmt.Errorf("refined system does not simulate: %w", err)
	}
	got, err := s.Run()
	if err != nil {
		return false, fmt.Errorf("refined system does not run to completion: %w", err)
	}
	return true, sameFinals(want.Finals, got.Finals)
}

// synthStaged is the traced op: the stages of core.Synthesize called one
// at a time, in its order and with its option defaults, each under its
// own span, then vhdlgen.Emit.
func synthStaged(tr *tracer, op int64, in *synthInput) (string, error) {
	ac := newAllocCounter()
	root := tr.begin("synth.op", -1, op)
	defer tr.end(root)

	tr.add("hdl.source_bytes", float64(len(in.text)))
	a0 := ac.read()
	id := tr.begin("hdl.parse", root, op)
	sys, err := hdl.Parse(in.text)
	tr.end(id)
	tr.add("hdl.alloc_bytes", float64(ac.read().sub(a0).bytes))
	if err != nil {
		return "", err
	}

	opts := in.opts
	if errs := sys.Validate(); len(errs) > 0 {
		return "", fmt.Errorf("invalid input system: %w", errs[0])
	}
	if !opts.Bus.QuantizeRates && opts.Bus.Constraints == nil && opts.Bus.MaxWidth == 0 {
		def := busgen.DefaultConfig()
		def.Protocol = opts.Bus.Protocol
		def.Workers = opts.Bus.Workers
		opts.Bus = def
	}
	if opts.Workers != 0 {
		opts.Bus.Workers = opts.Workers
	}
	if len(sys.Channels) == 0 {
		id = tr.begin("partition.derive", root, op)
		_, err = partition.DeriveChannels(sys)
		tr.end(id)
		if err != nil {
			return "", err
		}
	}
	tr.add("partition.channels", float64(len(sys.Channels)))
	id = tr.begin("estimate.new", root, op)
	est := estimate.New(sys.Channels)
	tr.end(id)
	buses := sys.Buses
	if len(buses) == 0 {
		id = tr.begin("partition.group", root, op)
		buses, err = partition.GroupBuses(sys, est, opts.Grouping, opts.Bus)
		tr.end(id)
		if err != nil {
			return "", err
		}
	}
	for _, bus := range buses {
		if opts.ForceWidth > 0 {
			bus.Width = opts.ForceWidth
			continue
		}
		if bus.Width != 0 {
			continue
		}
		id = tr.begin("busgen.generate", root, op)
		gen, err := busgen.Generate(bus.Channels, est, opts.Bus)
		tr.end(id)
		if err != nil {
			return "", fmt.Errorf("bus %s: %w", bus.Name, err)
		}
		tr.add("busgen.widths", float64(len(gen.Trace)))
		bus.Width = gen.Width
	}
	for _, bus := range buses {
		a0 = ac.read()
		id = tr.begin("protogen.generate", root, op)
		ref, err := protogen.Generate(sys, bus, protogen.Config{
			Protocol:      opts.Bus.Protocol,
			BusSignalName: opts.BusSignalPrefix + bus.Name,
			Arbitrate:     opts.Arbitrate,
			Robust:        opts.Robust,
			Parity:        opts.Parity,
			TimeoutClocks: opts.TimeoutClocks,
			MaxRetries:    opts.MaxRetries,
		})
		tr.end(id)
		tr.add("protogen.alloc_bytes", float64(ac.read().sub(a0).bytes))
		if err != nil {
			return "", fmt.Errorf("bus %s: %w", bus.Name, err)
		}
		tr.add("protogen.rewritten_stmts", float64(ref.RewrittenStmts))
	}
	if errs := sys.Validate(); len(errs) > 0 {
		return "", fmt.Errorf("refined system invalid: %w", errs[0])
	}
	id = tr.begin("vhdlgen.emit", root, op)
	v := vhdlgen.Emit(sys)
	tr.end(id)
	tr.add("vhdlgen.bytes", float64(len(v)))
	return v, nil
}
