package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/fault"
	"repro/internal/sim"
)

// The output checks compare against figures the paper or the protocol
// design fixes, or against results the benchmark computes itself by
// another route — never against a saved copy of earlier output. Each is
// a pure function so checks_test.go can show it fires on a wrong input.

// sameFinals requires every final of the abstract run to be present and
// equal in the refined run: the paper's functional-equivalence claim.
// The refined system adds bus signals and counters; only the abstract
// system's variables are compared.
func sameFinals(abstract, refined map[string]sim.Value) error {
	keys := make([]string, 0, len(abstract))
	for k := range abstract {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		got, ok := refined[k]
		if !ok {
			return fmt.Errorf("final %s missing from the refined run", k)
		}
		if !abstract[k].Equal(got) {
			return fmt.Errorf("final %s: abstract %s, refined %s", k, abstract[k], got)
		}
	}
	return nil
}

// fig8Row is one constraint set's bus-generation result.
type fig8Row struct {
	design        string
	width         int
	rate          float64 // bits/clock
	reductionPct  float64
	separateLines int
}

// fig8Paper is the paper's Fig. 8 table for the FLC's ch1+ch2 group.
var fig8Paper = map[string]fig8Row{
	"A": {"A", 20, 10, 56, 46},
	"B": {"B", 18, 9, 61, 46},
	"C": {"C", 16, 8, 66, 46},
}

// checkFig8 compares a selected bus against the paper's row. The
// reduction must be the one the width implies, and within one point of
// the paper's whole percent: the paper prints 56.5 % as 56 and 65.2 %
// as 66.
func checkFig8(got fig8Row) error {
	want, ok := fig8Paper[got.design]
	if !ok {
		return fmt.Errorf("no paper row for design %q", got.design)
	}
	implied := 100 * float64(got.separateLines-got.width) / float64(got.separateLines)
	if got.width != want.width || got.rate != want.rate || got.separateLines != want.separateLines ||
		math.Abs(got.reductionPct-implied) > 1e-9 || math.Abs(got.reductionPct-want.reductionPct) > 1 {
		return fmt.Errorf("design %s: width %d, rate %g, reduction %.1f%% of %d pins; paper: %d, %g, %g%% of %d",
			got.design, got.width, got.rate, got.reductionPct, got.separateLines,
			want.width, want.rate, want.reductionPct, want.separateLines)
	}
	return nil
}

// checkDigest requires a daemon's vhdl_sha256 to be the SHA-256 of the
// VHDL the benchmark emitted itself for the same text and options.
func checkDigest(gotHex, vhdl string) error {
	sum := sha256.Sum256([]byte(vhdl))
	if want := hex.EncodeToString(sum[:]); gotHex != want {
		return fmt.Errorf("vhdl_sha256 %s, own emission digests to %s", gotHex, want)
	}
	return nil
}

// checkFig7 checks the simulated Fig. 7 sweep: clocks never increase
// with width, and widths 23 and 24 (past the 16+7-bit message) tie.
func checkFig7(widths []int, clocks []int64) error {
	for i := 1; i < len(widths); i++ {
		if clocks[i] > clocks[i-1] {
			return fmt.Errorf("width %d takes %d clocks, more than %d at width %d",
				widths[i], clocks[i], clocks[i-1], widths[i-1])
		}
	}
	var at23, at24 int64 = -1, -2
	for i, w := range widths {
		switch w {
		case 23:
			at23 = clocks[i]
		case 24:
			at24 = clocks[i]
		}
	}
	if at23 != at24 {
		return fmt.Errorf("no plateau: %d clocks at width 23, %d at width 24", at23, at24)
	}
	return nil
}

// classifyReplay classifies one faulty run by the campaign's stated
// rules, written out independently here: a hang is deadlocked, any other
// error is corrupted; otherwise finals equal to golden (abort counters
// excluded) survived, a mismatch with a nonzero abort counter aborted
// cleanly, and a silent mismatch is corrupted.
func classifyReplay(golden map[string]sim.Value, abortVars []string, res *sim.Result, runErr error) fault.Outcome {
	if runErr != nil {
		var dl *sim.DeadlockError
		if errors.As(runErr, &dl) || strings.Contains(runErr.Error(), "MaxClocks") {
			return fault.Deadlocked
		}
		return fault.Corrupted
	}
	skip := make(map[string]bool, len(abortVars))
	var aborts int64
	for _, k := range abortVars {
		skip[k] = true
		if iv, ok := res.Finals[k].(sim.IntVal); ok {
			aborts += iv.V
		}
	}
	for k, want := range golden {
		if skip[k] {
			continue
		}
		if got, ok := res.Finals[k]; !ok || !want.Equal(got) {
			if aborts > 0 {
				return fault.AbortedCleanly
			}
			return fault.Corrupted
		}
	}
	return fault.Survived
}

// checkExemplar compares the benchmark's own class for a replayed
// exemplar with the class the campaign gave it.
func checkExemplar(run int, campaign, replay fault.Outcome) error {
	if campaign != replay {
		return fmt.Errorf("exemplar run %d: campaign says %s, replay alone is %s", run, campaign, replay)
	}
	return nil
}

// robustDrop1States is the exhaustive state count of robust PQ at drop
// budget 1 when states are keyed on full values (perfbench/widen_key.sh
// re-derives it).
const robustDrop1States = 702_861

// errDedupKey names the known fault behind a short robust drop-1 count.
var errDedupKey = errors.New("dedup-key fault: sim.AppendBinary keys an array by its length and elements 0-8 " +
	"(arrayHeadElems, internal/sim/binary.go), so states differing only in later elements such as PQ's MEM(60) merge")

// checkRobustDrop1 requires the exhaustive robust drop-1 state count.
func checkRobustDrop1(states int) error {
	if states != robustDrop1States {
		return fmt.Errorf("robust PQ at drop 1 stored %d states, want %d: %w", states, robustDrop1States, errDedupKey)
	}
	return nil
}

// spillInvariant requires a check under a spilling memory budget to
// agree with the in-RAM check on counts and the reachable-set
// fingerprint, and to have actually spilled.
func spillInvariant(ramStates, spillStates int, ramTrans, spillTrans int64, ramFP, spillFP string, spilled int) error {
	if spilled == 0 {
		return errors.New("the budgeted check spilled nothing, so it proves nothing about the disk tier")
	}
	if ramStates != spillStates || ramTrans != spillTrans || ramFP != spillFP {
		return fmt.Errorf("in RAM %d states, %d transitions, fingerprint %s; spilling %d, %d, %s",
			ramStates, ramTrans, ramFP, spillStates, spillTrans, spillFP)
	}
	return nil
}
