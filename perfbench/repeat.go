package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// repeatRuns is the steadiness tool: it runs this binary n times on one
// tree, with seeds seed, seed+1, …, one run after another, and prints for
// every metric (and the host reference loop) the median, the quartiles
// as Python's statistics.quantiles(values, n=4) gives them, and the
// spread (q3-q1)/median that a bound must cover.
func repeatRuns(n int, workload string, seed uint64, seconds, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	failed := 0
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(s, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		var res line
		var diag struct {
			Diag map[string]any `json:"diag"`
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			b := sc.Bytes()
			if bytes.HasPrefix(b, []byte(`{"diag"`)) {
				if err := json.Unmarshal(b, &diag); err != nil {
					return err
				}
			} else if bytes.HasPrefix(b, []byte(`{"correct"`)) {
				if err := json.Unmarshal(b, &res); err != nil {
					return err
				}
			}
		}
		if !res.Correct || res.Failed > 0 {
			failed++
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		for _, name := range []string{"host.ref_ns", "host.steal_frac"} {
			if v, ok := diag.Diag[name].(float64); ok && trace == 0 {
				values[name] = append(values[name], v)
				units[name] = "diag"
			}
		}
		fmt.Fprintf(os.Stderr, "perfbench: run %d/%d (seed %d): correct=%v attempted=%d failed=%d\n",
			i+1, n, s, res.Correct, res.Attempted, res.Failed)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d runs, %d incorrect\n", workload, n, failed)
	fmt.Printf("%-28s %-10s %14s %14s %14s %8s  %s\n", "metric", "unit", "median", "q1", "q3", "spread", "values by seed")
	for _, name := range names {
		v := values[name]
		q1, q3 := quartiles(v)
		med := median(v)
		fmt.Printf("%-28s %-10s %14.4f %14.4f %14.4f %7.2f%%  %.4g\n", name, units[name], med, q1, q3, 100*(q3-q1)/med, v)
	}
	return nil
}
