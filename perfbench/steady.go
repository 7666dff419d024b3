package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// steady runs two sets of runs of every workload, each run a fresh
// process, interleaving the sets and alternating the workload order, and
// prints per metric each set's median and quartiles and the difference
// between the sets' medians. The spread is (Q3-Q1)/median, with the
// quartiles of Python's statistics.quantiles(values, n=4).
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload in each set")
	seconds := fs.Float64("seconds", 20, "timed window of each run")
	list := fs.String("workloads", "synth,simulate,check,serve", "comma-separated workloads")
	seed0 := fs.Int64("seed", 1, "first seed; set A uses seed..seed+runs-1, set B the next runs seeds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	wls := strings.Split(*list, ",")
	for _, w := range wls {
		if _, ok := runners[w]; !ok {
			return fmt.Errorf("unknown workload %q", w)
		}
	}
	// results[workload][set] collects one sample map per run.
	results := map[string][2][]sample{}
	for i := 0; i < *runs; i++ {
		order := append([]string(nil), wls...)
		sets := []int{0, 1}
		if i%2 == 1 {
			for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
				order[l], order[r] = order[r], order[l]
			}
			sets = []int{1, 0}
		}
		for _, w := range order {
			for _, set := range sets {
				seed := *seed0 + int64(i) + int64(set**runs)
				s, err := runOnce(exe, w, seed, *seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w, seed, err)
				}
				r := results[w]
				r[set] = append(r[set], s)
				results[w] = r
				fmt.Fprintf(os.Stderr, "%s set %c seed %d: %s\n", w, 'A'+set, seed, s)
			}
		}
	}
	for _, w := range wls {
		printSteadiness(w, results[w])
	}
	return nil
}

// sample is one run's figures: its end-to-end metrics, its detail
// figures, and its op counts.
type sample struct {
	values            map[string]float64
	attempted, failed int
	correct           bool
}

func (s sample) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "correct=%v failed=%d/%d", s.correct, s.failed, s.attempted)
	for _, k := range sortedKeys(s.values) {
		fmt.Fprintf(&b, " %s=%.4g", k, s.values[k])
	}
	return b.String()
}

func runOnce(exe, workload string, seed int64, seconds float64) (sample, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return sample{}, fmt.Errorf("%v\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return sample{}, fmt.Errorf("result line: %v", err)
	}
	s := sample{values: map[string]float64{}, attempted: res.Attempted, failed: res.Failed, correct: res.Correct}
	for k, v := range res.Metrics {
		s.values[k] = v.Value
	}
	for _, l := range strings.Split(stderr.String(), "\n") {
		if d, ok := strings.CutPrefix(l, "detail "); ok {
			var detail map[string]float64
			if err := json.Unmarshal([]byte(d), &detail); err == nil {
				for k, v := range detail {
					s.values["detail."+k] = v
				}
			}
		}
	}
	return s, nil
}

func printSteadiness(w string, sets [2][]sample) {
	fmt.Printf("\n%s: %d + %d runs\n", w, len(sets[0]), len(sets[1]))
	for set := 0; set < 2; set++ {
		att, fail, incorrect := 0, 0, 0
		for _, s := range sets[set] {
			att += s.attempted
			fail += s.failed
			if !s.correct {
				incorrect++
			}
		}
		fmt.Printf("  set %c: %d of %d ops failed (%.4f), %d runs incorrect\n", 'A'+set, fail, att, float64(fail)/float64(att), incorrect)
	}
	fmt.Printf("  %-32s %12s %12s %12s %8s | %12s %8s | %8s\n", "metric", "A median", "A q1", "A q3", "A iqr%", "B median", "B iqr%", "B-A %")
	names := map[string]bool{}
	for _, s := range sets[0] {
		for k := range s.values {
			names[k] = true
		}
	}
	for _, k := range sortedKeys(names) {
		var v [2][]float64
		for set := 0; set < 2; set++ {
			for _, s := range sets[set] {
				v[set] = append(v[set], s.values[k])
			}
		}
		qa, qb := quartiles(v[0]), quartiles(v[1])
		fmt.Printf("  %-32s %12.5g %12.5g %12.5g %8.2f | %12.5g %8.2f | %+8.2f\n", k,
			qa[1], qa[0], qa[2], spreadPct(qa), qb[1], spreadPct(qb), 100*(qb[1]/qa[1]-1))
	}
}

// quartiles are the quartiles of Python's statistics.quantiles(data, n=4).
func quartiles(data []float64) [3]float64 {
	q := quantiles(data, 4)
	return [3]float64{q[0], q[1], q[2]}
}

func spreadPct(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return 100 * (q[2] - q[0]) / q[1]
}
