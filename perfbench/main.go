// Command perfbench is the repository's benchmark: it runs one named
// workload for a fixed time, checks every output it produced, and prints
// one JSON result line. See METRICS.md for the workloads, every metric's
// definition, and what is left unmeasured.
//
//	bash perfbench/run.sh --workload serve-uniform --seed 7 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload paper-nested --seed 1 --seconds 5 --repeat 5
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1
// it holds the per-layer metrics of a separate traced run, and the layer
// waterfall is printed to standard error. With -repeat N the command
// instead runs itself N times with seeds seed…seed+N-1 and prints each
// metric's median and quartiles.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sync"
	"time"
)

// result is one run's outcome: operations attempted and failed (a
// refused or failed operation, a recovery, or a failed correctness
// check each count), the metrics, and diagnostics printed beside them.
type result struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	metrics   metrics
	diag      map[string]any
	refs      []float64 // host reference loop samples, ns/iteration
}

func newResult() *result { return &result{metrics: metrics{}, diag: map[string]any{}} }

// count records one attempted operation and whether it succeeded; the
// message describes a failure.
func (r *result) count(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

// fail records one failed check.
func (r *result) fail(format string, args ...any) { r.count(false, format, args...) }

// line is the result line's JSON shape.
type line struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

var workloads = []string{"paper-nested", "serve-uniform", "serve-skewed"}

func main() {
	workload := flag.String("workload", "", "workload: "+fmt.Sprint(workloads))
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	workdir := flag.String("workdir", ".bench_build", "directory for the run's files")
	repeat := flag.Int("repeat", 0, "run N times with consecutive seeds and print each metric's median and quartiles")
	flag.Parse()

	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %v, -seconds ≥ 1, -trace 0|1\n", workloads)
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatRuns(*repeat, *workload, *seed, *seconds, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	res := newResult()
	dur := time.Duration(*seconds) * time.Second
	var err error
	switch *workload {
	case "paper-nested":
		err = runNested(*seed, dur, *trace == 1, *workdir, res)
	case "serve-uniform":
		err = runServe(&uniformSpec, *seed, dur, *trace == 1, *workdir, res)
	case "serve-skewed":
		err = runServe(&skewedSpec, *seed, dur, *trace == 1, *workdir, res)
	}
	code := 0
	if err != nil {
		// The run broke off: still report what it saw, but exit non-zero.
		// Failed checks only make the result incorrect.
		res.fail("run: %v", err)
		code = 1
	}
	if !report(res) {
		code = 1
	}
	os.Exit(code)
}

// report prints the diagnostics line and the result line; it returns
// false if the result line could not be encoded.
func report(res *result) bool {
	if len(res.refs) > 0 {
		res.diag["host.ref_ns"] = median(res.refs)
	}
	if len(res.failures) > 0 {
		res.diag["failures"] = res.failures
		for _, f := range res.failures {
			fmt.Fprintln(os.Stderr, "perfbench: FAIL", f)
		}
	}
	out := line{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: res.metrics}
	for name, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			out.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not a number\n", name)
			m.Value = 0
			out.Metrics[name] = m
		}
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Failed = 1
		out.Correct = false
	}
	diag, _ := json.Marshal(map[string]any{"diag": res.diag})
	fmt.Println(string(diag))
	buf, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	fmt.Println(string(buf))
	return true
}
