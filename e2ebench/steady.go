package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runSteady runs each workload (or the named one) once per seed
// 1..runs, each in a fresh process, and prints every metric's median,
// quartiles and spread — the distance between the quartiles as a share
// of the median — beside the bound BENCHMARK.json gives it, if any.
func runSteady(name string, runs int, seconds float64, trace int) error {
	list := workloads
	if name != "" {
		w := lookup(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q (want %s)", name, workloadNames())
		}
		list = []*workload{w}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := readBounds("BENCHMARK.json")
	for _, w := range list {
		values := map[string][]float64{}
		units := map[string]string{}
		for seed := 1; seed <= runs; seed++ {
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var r result
			if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			fmt.Printf("%s seed %d: attempted %d failed %d correct %v\n", w.name, seed, r.Attempted, r.Failed, r.Correct)
			for _, l := range lines {
				if rest, ok := bytes.CutPrefix(l, []byte(ungatedPrefix)); ok {
					if err := json.Unmarshal(rest, &r.Metrics); err != nil {
						return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
					}
				}
			}
			for n, m := range r.Metrics {
				values[n] = append(values[n], m.Value)
				units[n] = m.Unit
			}
		}
		names := make([]string, 0, len(values))
		for n := range values {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("%s over %d seeds:\n", w.name, runs)
		for _, n := range names {
			q1, q2, q3 := quartiles(values[n])
			spread := (q3 - q1) / q2
			line := fmt.Sprintf("  %-32s median %12.6g %-5s q1 %12.6g q3 %12.6g spread %.3f",
				n, q2, units[n], q1, q3, spread)
			if b, ok := bounds[n]; ok {
				flag := "ok"
				if spread >= b/3 {
					flag = "WIDE"
				}
				line += fmt.Sprintf(" bound %.2f %s", b, flag)
			}
			fmt.Println(line)
			fmt.Printf("    %.6g\n", values[n])
		}
	}
	return nil
}

// readBounds reads the end-to-end bounds from BENCHMARK.json, or none
// when the file is absent.
func readBounds(path string) map[string]float64 {
	out := map[string]float64{}
	b, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(b, &spec) == nil {
		for _, m := range spec.EndToEnd {
			out[m.Name] = m.Bound
		}
	}
	return out
}
