package main

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/verify"
	"repro/internal/workloads"
)

// Each output check must fire on a deliberately wrong output, so that
// none of them passes vacuously.

func TestSameFinalsFiresOnTamperedFinal(t *testing.T) {
	abstract := map[string]sim.Value{"mem.X": sim.IntVal{V: 32}, "mem.Y": sim.BoolVal{V: true}}
	refined := map[string]sim.Value{"mem.X": sim.IntVal{V: 32}, "mem.Y": sim.BoolVal{V: true}, "B.ABORTS": sim.IntVal{V: 0}}
	if err := sameFinals(abstract, refined); err != nil {
		t.Fatalf("equal finals rejected: %v", err)
	}
	refined["mem.X"] = sim.IntVal{V: 33}
	if sameFinals(abstract, refined) == nil {
		t.Error("a tampered final value passed")
	}
	delete(refined, "mem.X")
	if sameFinals(abstract, refined) == nil {
		t.Error("a missing final passed")
	}
}

func TestCheckFig8FiresOnWrongWidth(t *testing.T) {
	rows := []fig8Row{
		{"A", 20, 10, 100 * 26.0 / 46, 46},
		{"B", 18, 9, 100 * 28.0 / 46, 46},
		{"C", 16, 8, 100 * 30.0 / 46, 46},
	}
	for _, r := range rows {
		if err := checkFig8(r); err != nil {
			t.Fatalf("paper row rejected: %v", err)
		}
	}
	wrong := rows[0]
	wrong.width, wrong.reductionPct = 19, 100*27.0/46
	if checkFig8(wrong) == nil {
		t.Error("width 19 for design A passed")
	}
	wrong = rows[1]
	wrong.rate = 9.5
	if checkFig8(wrong) == nil {
		t.Error("a wrong bus rate passed")
	}
	wrong = rows[2]
	wrong.reductionPct = 66
	if checkFig8(wrong) == nil {
		t.Error("a reduction the width does not imply passed")
	}
}

func TestCheckDigestFiresOnFlippedByte(t *testing.T) {
	vhdl := "entity PQ is\nend entity;\n"
	// sha256sum of the text above.
	good := "3086870f32cd0a8cc0cb0d6f5fb25fe9edd0a238a9b4cd228368b1545a549ea0"
	if err := checkDigest(good, vhdl); err != nil {
		t.Fatalf("matching digest rejected: %v", err)
	}
	flipped := []byte(vhdl)
	flipped[3] ^= 0x01
	if checkDigest(good, string(flipped)) == nil {
		t.Error("a digest of VHDL with one flipped byte passed")
	}
}

func TestCheckFig7FiresOnBrokenShape(t *testing.T) {
	widths := []int{1, 2, 23, 24}
	if err := checkFig7(widths, []int64{100, 90, 80, 80}); err != nil {
		t.Fatalf("paper shape rejected: %v", err)
	}
	if checkFig7(widths, []int64{100, 101, 80, 80}) == nil {
		t.Error("clocks rising with width passed")
	}
	if checkFig7(widths, []int64{100, 90, 80, 79}) == nil {
		t.Error("a missing plateau at 23/24 passed")
	}
}

func TestClassifyReplayRules(t *testing.T) {
	golden := map[string]sim.Value{"m.X": sim.IntVal{V: 1}, "m.ABORTS": sim.IntVal{V: 0}}
	aborts := []string{"m.ABORTS"}
	res := func(x, a int64) *sim.Result {
		return &sim.Result{Finals: map[string]sim.Value{"m.X": sim.IntVal{V: x}, "m.ABORTS": sim.IntVal{V: a}}}
	}
	cases := []struct {
		res  *sim.Result
		err  error
		want fault.Outcome
	}{
		{res(1, 0), nil, fault.Survived},
		{res(1, 2), nil, fault.Survived},
		{res(2, 1), nil, fault.AbortedCleanly},
		{res(2, 0), nil, fault.Corrupted},
		{nil, &sim.DeadlockError{}, fault.Deadlocked},
		{nil, errors.New("sim: exceeded MaxClocks 100"), fault.Deadlocked},
		{nil, errors.New("index out of range"), fault.Corrupted},
	}
	for i, c := range cases {
		if got := classifyReplay(golden, aborts, c.res, c.err); got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}
}

// TestExemplarCheckFiresOnMisclassification replays real exemplars of a
// small campaign: each matches as reported, and fires once its class is
// tampered with.
func TestExemplarCheckFiresOnMisclassification(t *testing.T) {
	sys, _ := workloads.PQ()
	rep, err := core.Synthesize(sys, core.Options{Robust: true})
	if err != nil {
		t.Fatal(err)
	}
	br := rep.Buses[0]
	c := campaignSys{"robust-pq", sys, br.Bus, br.Ref.AbortKeys()}
	camp, err := fault.Campaign(sys, br.Bus, fault.Config{Runs: 300, Seed: 7, AbortVars: c.abortVars})
	if err != nil {
		t.Fatal(err)
	}
	out := &outcome{detail: map[string]float64{}}
	replayExemplars(c, camp, out)
	if len(out.checkErrs) > 0 || out.detail["exemplars_replayed_robust-pq"] == 0 {
		t.Fatalf("honest exemplars: %v, %v replayed", out.checkErrs, out.detail)
	}
	var tampered fault.Outcome = -1
	for o := fault.Survived; o <= fault.Deadlocked; o++ {
		if ex := camp.Exemplars[o]; len(ex) > 0 {
			wrong := (o + 1) % (fault.Deadlocked + 1)
			camp.Exemplars[wrong] = append(camp.Exemplars[wrong], ex[0])
			tampered = o
			break
		}
	}
	if tampered < 0 {
		t.Fatal("campaign kept no exemplars")
	}
	out = &outcome{detail: map[string]float64{}}
	replayExemplars(c, camp, out)
	if len(out.checkErrs) == 0 {
		t.Error("a mis-classified exemplar passed")
	}
}

func TestCheckRobustDrop1FiresOnWrongCount(t *testing.T) {
	if err := checkRobustDrop1(702_861); err != nil {
		t.Fatalf("the full-key count rejected: %v", err)
	}
	for _, n := range []int{678_661, 702_860, 702_862} {
		err := checkRobustDrop1(n)
		if err == nil {
			t.Errorf("%d states passed", n)
		} else if !errors.Is(err, errDedupKey) {
			t.Errorf("%d states: error does not name the dedup-key fault: %v", n, err)
		}
	}
}

// TestRobustDrop1BookingFires shows that only the short state count is
// booked as the known failed op: a deadlock or an incomplete search at
// robust drop 1 makes the run incorrect.
func TestRobustDrop1BookingFires(t *testing.T) {
	book := func(rep *verify.Report) *outcome {
		out := &outcome{detail: map[string]float64{}}
		bookJudgement(out, "robust-drop1-spill", &jobResult{rep: rep, states: rep.States})
		return out
	}
	if out := book(&verify.Report{States: 702_861}); out.failed != 0 || len(out.checkErrs) != 0 {
		t.Fatalf("the full-key count: %d failed, checks %v", out.failed, out.checkErrs)
	}
	if out := book(&verify.Report{States: 678_661}); out.failed != 1 || len(out.checkErrs) != 0 {
		t.Errorf("the short count: %d failed, checks %v; want one failed op and no failed check", out.failed, out.checkErrs)
	}
	wrong := []*verify.Report{
		{States: 678_661, Violations: []verify.Violation{{Kind: verify.Deadlock}}},
		{States: 702_861, Violations: []verify.Violation{{Kind: verify.Deadlock}}},
		{States: 678_661, Incomplete: true, IncompleteReason: "state bound"},
		{States: 500_000, Incomplete: true, IncompleteReason: "state bound"},
	}
	for i, rep := range wrong {
		if out := book(rep); len(out.checkErrs) == 0 {
			t.Errorf("case %d: a deadlocking or incomplete robust drop-1 report left the run correct (%d failed)", i, out.failed)
		}
	}
}

func TestSpillInvariantFires(t *testing.T) {
	if err := spillInvariant(100, 100, 120, 120, "f", "f", 40); err != nil {
		t.Fatalf("agreeing runs rejected: %v", err)
	}
	if spillInvariant(100, 101, 120, 120, "f", "f", 40) == nil {
		t.Error("a wrong state count passed")
	}
	if spillInvariant(100, 100, 120, 120, "f", "g", 40) == nil {
		t.Error("a different fingerprint passed")
	}
	if spillInvariant(100, 100, 120, 120, "f", "f", 0) == nil {
		t.Error("a run that never spilled passed")
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{counts: map[string]float64{}}
	tr.spans = []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0}, // overlaps a
		{Name: "c", Start: 35, End: 45, Parent: 2},
		{Name: "a", Start: 70, End: 80, Parent: 0},
	}
	self := tr.selfTimes()
	want := map[string]int64{"op": 100 - 50 - 10, "a": 30 + 10, "b": 20, "c": 10}
	for name, w := range want {
		if got := self[name].Nanoseconds(); got != w {
			t.Errorf("self time of %s = %d, want %d", name, got, w)
		}
	}
}

func TestQuantilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	for i, w := range []float64{2.75, 5.5, 8.25} {
		if math.Abs(q[i]-w) > 1e-12 {
			t.Errorf("quartile %d = %g, want %g", i+1, q[i], w)
		}
	}
	// statistics.quantiles(range(1, 2001), n=100)[98] == 1980.99
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(2000 - i)
	}
	if got := p99(xs); math.Abs(got-1980.99) > 1e-9 {
		t.Errorf("p99 = %g, want 1980.99", got)
	}
}
