package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs two sets of n runs of every workload, interleaved
// (set A run i, set B run i, per workload), each run a fresh process
// with its own seed, and prints each end-to-end figure's median and
// quartiles per set. For the bounded metrics it says whether the sets
// agree within the committed bounds: set B's median no worse than set
// A's by more than the bound and, except for setup_s, each set's
// quartile spread within the bound. The unbounded figures are printed
// the same way, marked so.
func steadiness(n, seconds int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("steadiness mode reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// values[workload][set][metric] = one value per run.
	values := map[string][2]map[string][]float64{}
	failed := map[string][2]float64{}
	for _, w := range workloads {
		values[w] = [2]map[string][]float64{{}, {}}
	}
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			seed := int64(1 + i + 1000*set)
			for _, w := range workloads {
				res, err := runChild(exe, w, seed, seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w, seed, err)
				}
				for _, group := range []map[string]metric{res.Metrics, res.Unbounded} {
					for name, m := range group {
						values[w][set][name] = append(values[w][set][name], m.Value)
					}
				}
				f := failed[w]
				f[set] += float64(res.Failed) / float64(res.Attempted)
				failed[w] = f
				fmt.Fprintf(os.Stderr, "steady: set %c run %d %s done\n", 'A'+set, i+1, w)
			}
		}
	}
	agree := true
	for _, w := range workloads {
		fmt.Printf("%s (failed share A %.4f, B %.4f)\n", w, failed[w][0]/float64(n), failed[w][1]/float64(n))
		fmt.Printf("  %-14s %10s %10s %10s %7s | %10s %10s %10s %7s | %6s %6s %s\n",
			"metric", "A q1", "A median", "A q3", "spread", "B q1", "B median", "B q3", "spread", "shift", "bound", "verdict")
		for i, m := range append(endToEnd[:len(endToEnd):len(endToEnd)], unbounded...) {
			a, b := values[w][0][m.name], values[w][1][m.name]
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			sa, sb := (a3-a1)/a2, (b3-b1)/b2
			shift := (b2 - a2) / a2 // lower is better for every metric
			if i >= len(endToEnd) {
				fmt.Printf("  %-14s %10.4f %10.4f %10.4f %7.4f | %10.4f %10.4f %10.4f %7.4f | %6.3f %6s %s\n",
					m.name, a1, a2, a3, sa, b1, b2, b3, sb, shift, "-", "unbounded")
				continue
			}
			bound := bounds[m.name]
			ok := shift <= bound
			verdict := "agree"
			if m.name == "setup_s" {
				// Set-up time is bounded so that work moved into set-up
				// shows as a shift of the median. Like the unbounded
				// latencies it is a wall-clock time that host episodes
				// move, so its spread is printed but not gated.
				verdict = "agree (shift only; spread not gated)"
			} else {
				ok = ok && sa <= bound && sb <= bound
			}
			if math.IsNaN(sa) || math.IsNaN(sb) || math.IsNaN(shift) {
				ok = false
			}
			if !ok {
				verdict = "DISAGREE"
				agree = false
			}
			fmt.Printf("  %-14s %10.4f %10.4f %10.4f %7.4f | %10.4f %10.4f %10.4f %7.4f | %6.3f %6.3f %s\n",
				m.name, a1, a2, a3, sa, b1, b2, b3, sb, shift, bound, verdict)
		}
		if failed[w][0] != failed[w][1] {
			fmt.Println("  failed shares differ between the sets")
			agree = false
		}
	}
	if !agree {
		return fmt.Errorf("the two sets do not agree within the bounds")
	}
	fmt.Println("all metrics agree within the bounds")
	return nil
}

// runChild runs one untraced benchmark run in a fresh process.
func runChild(exe, workload string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	// The result is the last line; an untraced run prints its
	// unbounded figures on a line before it.
	var last []byte
	var res result
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.HasPrefix(line, []byte(`{"unbounded":`)) {
			var u struct {
				Unbounded map[string]metric `json:"unbounded"`
			}
			if err := json.Unmarshal(line, &u); err != nil {
				return nil, fmt.Errorf("parse unbounded line %q: %w", line, err)
			}
			res.Unbounded = u.Unbounded
		}
		if len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("parse result line %q: %w", last, err)
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("run attempted nothing")
	}
	return &res, nil
}
