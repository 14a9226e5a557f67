// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index):
//
//	Figure 3 — CPU-usage trace of NAS FT (16 CPUs, 1 ms sampling)
//	Figure 4 — DPD distance curve d(m) with the minimum at m = 44
//	Figure 7 — address streams of 5 SPECfp95 apps with segmentation marks
//	Table 2  — detected periodicities and stream lengths
//	Table 3  — DPD processing overhead per application
//	§5/[Corbalan2000] — speedup computation and allocation-policy benefit
//
// Each experiment returns structured results (consumed by the benchmark
// harness and tests) plus formatted text (consumed by cmd/experiments).
package experiments

import (
	"fmt"
	"strings"
	"time"

	"dpd/internal/apps"
	"dpd/internal/core"
	"dpd/internal/ditools"
	"dpd/internal/machine"
	"dpd/internal/nanos"
	"dpd/internal/sched"
	"dpd/internal/selfanalyzer"
	"dpd/internal/textplot"
	"dpd/internal/trace"
)

// Fig3Result is the reproduced Figure 3.
type Fig3Result struct {
	// Trace is the 1 ms CPU-usage trace of the FT model.
	Trace *trace.CPUTrace
	// Plot is the rendered figure.
	Plot string
}

// Figure3 generates the FT CPU-usage trace. iterations <= 0 selects the
// default run length; jitterSeed 0 disables the per-iteration variation.
func Figure3(iterations int, jitterSeed uint64) Fig3Result {
	tr := apps.FTCPUTrace(iterations, jitterSeed)
	plot := textplot.Plot(tr.Samples, nil, textplot.Options{
		Width:  100,
		Height: 17,
		YLabel: "Figure 3: number of CPUs used (FT, MPI/OpenMP, 1 ms sampling)",
		XLabel: fmt.Sprintf("time (ms), %d samples total", tr.Len()),
	})
	return Fig3Result{Trace: tr, Plot: plot}
}

// Fig4Result is the reproduced Figure 4.
type Fig4Result struct {
	// Curve is d(m) for m = 1..len(Curve).
	Curve []float64
	// BestLag is the detected periodicity (paper: 44).
	BestLag int
	// Confidence is the prominence of the minimum.
	Confidence float64
	// LockedAt is the sample index at which the detector first locked
	// onto BestLag, captured through the observer API; -1 if no lock
	// was established.
	LockedAt int
	// Plot is the rendered figure.
	Plot string
}

// Figure4 runs the eq. (1) magnitude engine over the Figure 3 trace and
// returns the final distance curve; an Observer subscription records
// when the final periodicity was established.
func Figure4(fig3 Fig3Result) Fig4Result {
	eng := core.NewMagnitudeEngine(core.MustMagnitudeDetector(core.Config{Window: 100, Confirm: 3}))
	firstLock := map[int]int{} // period → sample index of its first lock
	record := func(e *core.Event) {
		if _, seen := firstLock[e.Period]; !seen {
			firstLock[e.Period] = int(e.T)
		}
	}
	eng.SetObserver(core.ObserverFuncs{Lock: record, PeriodChange: record})
	var last core.Result
	for _, v := range fig3.Trace.Samples {
		last = eng.Feed(core.Sample{Magnitude: v})
	}
	curve := eng.Detector().Curve()
	lockedAt := -1
	if at, ok := firstLock[last.Period]; ok {
		lockedAt = at
	}
	res := Fig4Result{Curve: curve.D, BestLag: last.Period, Confidence: last.Confidence, LockedAt: lockedAt}
	res.Plot = textplot.Curve(curve.D, res.BestLag, textplot.Options{
		Width:  99, // one column per lag
		Height: 14,
		YLabel: "Figure 4: distance d(m) over lag m (window N=100)",
		XLabel: fmt.Sprintf("lag m (1..%d); detected periodicity m=%d", len(curve.D), res.BestLag),
	})
	return res
}

// Fig7Result is one panel of the reproduced Figure 7.
type Fig7Result struct {
	// App is the application name.
	App string
	// WindowStart/WindowLen delimit the plotted slice of the stream.
	WindowStart, WindowLen int
	// Starts are the segmentation marks (indices into the plotted slice).
	Starts []int
	// Period is the periodicity governing the plotted segmentation.
	Period int
	// Plot is the rendered panel.
	Plot string
}

// Figure7 renders, for each SPECfp95 application, a slice of the address
// stream with the DPD's period-start segmentation marks.
func Figure7() []Fig7Result {
	var out []Fig7Result
	for _, app := range apps.SPECfp95() {
		tr := app.Trace()
		ms := core.MustMultiScaleDetector(nil, core.Config{})
		// Collect segmentation marks per ladder level, then keep the level
		// that certified the outermost (largest) period: mixing marks from
		// levels with different phase anchors would corrupt the spacing.
		type mark struct{ idx, period int }
		perLevel := make([][]mark, ms.Levels())
		for i, v := range tr.Values {
			mr := ms.Feed(v)
			for lvl, r := range mr.PerLevel {
				if r.Locked && r.Start {
					perLevel[lvl] = append(perLevel[lvl], mark{i, r.Period})
				}
			}
		}
		var marks []mark
		best := 0
		for _, lm := range perLevel {
			if len(lm) == 0 {
				continue
			}
			if p := lm[len(lm)-1].period; p > best {
				best = p
				marks = lm
			}
		}
		// Plot a window covering ~3 outer iterations from the middle of
		// the stream, where segmentation is established.
		p := app.EventsPerIteration()
		wlen := 3 * p
		if wlen > tr.Len() {
			wlen = tr.Len()
		}
		wstart := tr.Len() / 2
		if wstart+wlen > tr.Len() {
			wstart = tr.Len() - wlen
		}
		var local []int
		period := 0
		for _, m := range marks {
			if m.period == best && m.idx >= wstart && m.idx < wstart+wlen {
				local = append(local, m.idx-wstart)
				period = m.period
			}
		}
		vals := make([]float64, wlen)
		for i := range vals {
			vals[i] = float64(tr.Values[wstart+i])
		}
		plot := textplot.Plot(vals, local, textplot.Options{
			Width:  100,
			Height: 10,
			YLabel: fmt.Sprintf("Figure 7 (%s): loop address stream, samples %d..%d", app.Name, wstart, wstart+wlen),
			XLabel: fmt.Sprintf("segmentation period %d", period),
		})
		out = append(out, Fig7Result{
			App: app.Name, WindowStart: wstart, WindowLen: wlen,
			Starts: local, Period: period, Plot: plot,
		})
	}
	return out
}

// Table2Row is one row of the reproduced Table 2.
type Table2Row struct {
	App     string
	Length  int
	Periods []int
	// Expected is the paper's reported periodicity set.
	Expected []int
}

// Match reports whether the detected set equals the paper's.
func (r Table2Row) Match() bool {
	if len(r.Periods) != len(r.Expected) {
		return false
	}
	for i := range r.Periods {
		if r.Periods[i] != r.Expected[i] {
			return false
		}
	}
	return true
}

// Table2 runs the multi-scale DPD over every application's address stream
// and collects the distinct confirmed periodicities.
func Table2() []Table2Row {
	var out []Table2Row
	for _, app := range apps.SPECfp95() {
		tr := app.Trace()
		ms := core.MustMultiScaleDetector(nil, core.Config{})
		pt := core.NewPeriodTracker()
		for _, v := range tr.Values {
			pt.ObserveMulti(ms.Feed(v), ms)
		}
		out = append(out, Table2Row{
			App:      app.Name,
			Length:   tr.Len(),
			Periods:  pt.SignificantPeriods(8),
			Expected: app.ExpectPeriods,
		})
	}
	return out
}

// FormatTable2 renders Table 2 in the paper's layout.
func FormatTable2(rows []Table2Row) string {
	t := [][]string{{"Appl.", "Data stream length", "Detected periodicities", "Paper", "Match"}}
	for _, r := range rows {
		t = append(t, []string{
			r.App,
			fmt.Sprintf("%d", r.Length),
			intsToString(r.Periods),
			intsToString(r.Expected),
			fmt.Sprintf("%v", r.Match()),
		})
	}
	return "Table 2: Detected periodicities.\n" + textplot.Table(t)
}

// Table3Row is one row of the reproduced Table 3.
type Table3Row struct {
	App string
	// NumElems is the trace length.
	NumElems int
	// ApExTime is the application's (simulated) sequential execution time.
	ApExTime time.Duration
	// TimeProc is the real, measured time this Go implementation spends
	// processing the whole trace through a fresh DPD: its fastest replay.
	TimeProc time.Duration
	// Percentage is TimeProc/ApExTime·100.
	Percentage float64
	// TimePerElem is TimeProc/NumElems.
	TimePerElem time.Duration
	// Windows is the detector ladder used (cost scales with it).
	Windows []int
}

// table3Ladder returns the detector configuration an application needs:
// flat periodicities fit a small window (the paper: "for some data series
// the size of the data window can be less than N=10"); nested structures
// need the full ladder up to N=1024 — which is why the paper's hydro2d
// and turb3d cost ~30× more per element.
func table3Ladder(app *apps.App) []int {
	maxP := 0
	for _, p := range app.ExpectPeriods {
		if p > maxP {
			maxP = p
		}
	}
	if maxP <= 8 {
		return []int{16}
	}
	if maxP <= 100 {
		return []int{8, 128}
	}
	return core.DefaultLadder
}

// Table3 replays every trace in table3Rounds rounds, each of which keeps
// replaying it for table3Span (at least once), and times each trace by
// its fastest replay. A flat trace replays in well under a millisecond,
// and a busy host can run it at half speed for tens of milliseconds at a
// time: many replays spread across rounds let the fastest reach the
// processing cost.
const table3Rounds, table3Span = 7, 2 * time.Millisecond

// Table3 measures the DPD processing overhead on every application trace,
// replaying recorded traces exactly as the paper's synthetic benchmark
// does (§6.3).
func Table3() []Table3Row {
	specs := apps.SPECfp95()
	out := make([]Table3Row, len(specs))
	traces := make([][]int64, len(specs))
	for i, app := range specs {
		traces[i] = app.Trace().Values
		out[i] = Table3Row{
			App:      app.Name,
			NumElems: len(traces[i]),
			ApExTime: app.SequentialTime(),
			Windows:  table3Ladder(app),
		}
	}
	for range table3Rounds {
		for i := range specs {
			row := &out[i]
			for spent := time.Duration(0); spent < table3Span; {
				ms := core.MustMultiScaleDetector(row.Windows, core.Config{})
				start := time.Now()
				for _, v := range traces[i] {
					ms.Feed(v)
				}
				d := time.Since(start)
				if row.TimeProc == 0 || d < row.TimeProc {
					row.TimeProc = d
				}
				spent += d
			}
		}
	}
	for i := range out {
		row := &out[i]
		row.Percentage = 100 * float64(row.TimeProc) / float64(row.ApExTime)
		row.TimePerElem = row.TimeProc / time.Duration(row.NumElems)
	}
	return out
}

// FormatTable3 renders Table 3 in the paper's layout.
func FormatTable3(rows []Table3Row) string {
	t := [][]string{{"", "NumElems", "ApExTime(sec)", "TimeProc(sec)", "Perc.", "TimexElem(ms)", "windows"}}
	for _, r := range rows {
		t = append(t, []string{
			r.App,
			fmt.Sprintf("%d", r.NumElems),
			fmt.Sprintf("%.2f", r.ApExTime.Seconds()),
			fmt.Sprintf("%.6f", r.TimeProc.Seconds()),
			fmt.Sprintf("%.4f%%", r.Percentage),
			fmt.Sprintf("%.6f", float64(r.TimePerElem)/float64(time.Millisecond)),
			intsToString(r.Windows),
		})
	}
	return "Table 3: Overhead analysis (ApExTime simulated, TimeProc measured).\n" + textplot.Table(t)
}

// SpeedupResult is the §5 case-study outcome for one application.
type SpeedupResult struct {
	App string
	// Period is the region length the DPD identified.
	Period int
	// Procs is the allocation the speedup was measured at.
	Procs int
	// Speedup is the SelfAnalyzer's measured speedup.
	Speedup float64
	// Efficiency is Speedup/Procs.
	Efficiency float64
	// EstimatedTotal vs ActualTotal validate the execution-time estimate.
	EstimatedTotal, ActualTotal time.Duration
}

// CaseStudy runs every SPECfp95 application under the SelfAnalyzer on a
// 16-CPU machine and reports the dynamically computed speedups.
func CaseStudy(cpus int) []SpeedupResult {
	if cpus <= 0 {
		cpus = 16
	}
	var out []SpeedupResult
	for _, app := range apps.SPECfp95() {
		m := machine.New(cpus)
		reg := ditools.NewRegistry()
		rt := nanos.MustNew(m, machine.DefaultCostModel(), cpus, reg)
		sa := selfanalyzer.MustAttach(rt, reg, selfanalyzer.Config{})

		// Run enough iterations for identification + measurement, capped
		// by the app's own trip count.
		iters := app.Iterations
		probe := 40
		if probe > iters {
			probe = iters
		}
		app.RunIterations(rt, probe)
		est, _ := sa.EstimateTotal(app.Iterations)
		for i := probe; i < iters; i++ {
			rt.RunIteration(app.Body)
		}
		res := SpeedupResult{App: app.Name, Procs: cpus, ActualTotal: rt.Now(), EstimatedTotal: est}
		if r := sa.Region(); r != nil {
			res.Period = r.Period
			res.Speedup = r.Speedup
			res.Efficiency = r.Efficiency()
		}
		out = append(out, res)
	}
	return out
}

// FormatCaseStudy renders the case-study results.
func FormatCaseStudy(rs []SpeedupResult) string {
	t := [][]string{{"Appl.", "region period", "procs", "speedup", "efficiency", "est. total", "actual total"}}
	for _, r := range rs {
		t = append(t, []string{
			r.App,
			fmt.Sprintf("%d", r.Period),
			fmt.Sprintf("%d", r.Procs),
			fmt.Sprintf("%.2f", r.Speedup),
			fmt.Sprintf("%.2f", r.Efficiency),
			fmt.Sprintf("%.2fs", r.EstimatedTotal.Seconds()),
			fmt.Sprintf("%.2fs", r.ActualTotal.Seconds()),
		})
	}
	return "Case study (§5): SelfAnalyzer dynamic speedup computation.\n" + textplot.Table(t)
}

// SchedResult compares allocation policies on a SPECfp95-derived workload.
type SchedResult struct {
	Results []*sched.Result
	// CPUSaving is equipartition's CPU consumption divided by the
	// efficiency-floored performance-driven policy's: processors the
	// speedup-aware allocator frees for other work.
	CPUSaving float64
	// ScalableSpeedup is how much faster the best-scaling job (turb3d)
	// completes under performance-driven allocation than equipartition.
	ScalableSpeedup float64
}

// Scheduler reproduces the [Corbalan2000] benefit: speedup-aware
// allocation against equipartition on a mixed-scalability workload.
func Scheduler(cpus int) (SchedResult, error) {
	if cpus <= 0 {
		cpus = 16
	}
	cm := machine.DefaultCostModel()
	// curve composes the loop-level cost-model speedup with an Amdahl
	// serial fraction representing each application's non-loop glue code
	// (I/O, reductions, boundary updates), which the address-stream
	// skeletons do not model but which dominates scalability differences
	// in the real SPECfp95 codes: S(p) = 1/(f + (1−f)/S_loop(p)).
	curve := func(trip int, per time.Duration, serialFrac float64) sched.SpeedupFunc {
		return func(p int) float64 {
			s := cm.Speedup(trip, per, p)
			return 1 / (serialFrac + (1-serialFrac)/s)
		}
	}
	// Jobs derived from the SPECfp95 skeletons: Work = simulated serial
	// time, Speedup = the dominant loop's curve damped by the app's serial
	// fraction. turb3d's big loops scale well; hydro2d's many tiny loops
	// and serial glue scale poorly.
	jobs := []sched.Job{
		{Name: "tomcatv", Work: apps.Tomcatv().SequentialTime(), Speedup: curve(101, 360*time.Microsecond, 0.02)},
		{Name: "swim", Work: apps.Swim().SequentialTime(), Speedup: curve(125, 200*time.Microsecond, 0.03)},
		{Name: "apsi", Work: apps.Apsi().SequentialTime(), Speedup: curve(111, 150*time.Microsecond, 0.10)},
		{Name: "hydro2d", Work: apps.Hydro2d().SequentialTime(), Speedup: curve(100, 34*time.Microsecond, 0.35)},
		{Name: "turb3d", Work: apps.Turb3d().SequentialTime(), Speedup: curve(200, 853*time.Microsecond, 0.01)},
	}
	mk := func() []sched.Job {
		out := make([]sched.Job, len(jobs))
		copy(out, jobs)
		return out
	}
	eq, err := sched.Simulate(mk(), cpus, 100*time.Millisecond, sched.Equipartition{})
	if err != nil {
		return SchedResult{}, err
	}
	pd, err := sched.Simulate(mk(), cpus, 100*time.Millisecond, sched.PerformanceDriven{})
	if err != nil {
		return SchedResult{}, err
	}
	floor, err := sched.Simulate(mk(), cpus, 100*time.Millisecond, sched.PerformanceDriven{MinEfficiency: 0.3})
	if err != nil {
		return SchedResult{}, err
	}
	finish := func(r *sched.Result, name string) time.Duration {
		for _, j := range r.Jobs {
			if j.Name == name {
				return j.Finish
			}
		}
		return 0
	}
	return SchedResult{
		Results:         []*sched.Result{eq, pd, floor},
		CPUSaving:       float64(eq.CPUTime) / float64(floor.CPUTime),
		ScalableSpeedup: float64(finish(eq, "turb3d")) / float64(finish(pd, "turb3d")),
	}, nil
}

// FormatScheduler renders the policy comparison. The speedup-aware
// policies free processors (lower CPU time) and accelerate the jobs that
// can use them; equipartition parks processors on jobs that cannot — the
// benefit [Corbalan2000] reports from feeding SelfAnalyzer speedups into
// the allocator.
func FormatScheduler(sr SchedResult) string {
	t := [][]string{{"policy", "makespan", "avg turnaround", "cpu time"}}
	for _, r := range sr.Results {
		name := r.Policy
		if r == sr.Results[len(sr.Results)-1] {
			name += " (eff floor 0.3)"
		}
		t = append(t, []string{
			name,
			fmt.Sprintf("%.1fs", r.Makespan.Seconds()),
			fmt.Sprintf("%.1fs", r.AvgTurnaround.Seconds()),
			fmt.Sprintf("%.1fs", r.CPUTime.Seconds()),
		})
	}
	return fmt.Sprintf(
		"Processor allocation ([Corbalan2000] consumer): %.2fx CPU-time saving, %.2fx faster scalable job (turb3d).\n%s",
		sr.CPUSaving, sr.ScalableSpeedup, textplot.Table(t))
}

func intsToString(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return strings.Join(parts, ", ")
}
