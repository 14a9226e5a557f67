package dpd_test

// End-to-end integration tests across module boundaries: application →
// runtime → interposition → trace codec → detector → analyzer, the full
// path the paper's Figure 6 describes plus the offline replay path of
// its overhead benchmark.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dpd"
	"dpd/internal/apps"
	"dpd/internal/core"
	"dpd/internal/ditools"
	"dpd/internal/machine"
	"dpd/internal/nanos"
	"dpd/internal/selfanalyzer"
	"dpd/internal/trace"
)

// TestPipelineTraceFileReplay: record an application's address stream to
// a file in both codecs, read it back, and verify the DPD detects the
// same periodicities from the replayed file as from the live stream —
// exactly the paper's synthetic benchmark methodology (§6.3).
func TestPipelineTraceFileReplay(t *testing.T) {
	app := apps.Turb3d()
	live := app.Trace()

	dir := t.TempDir()
	detect := func(values []int64) []int {
		ms := core.MustMultiScaleDetector(nil, core.Config{})
		pt := core.NewPeriodTracker()
		for _, v := range values {
			pt.ObserveMulti(ms.Feed(v), ms)
		}
		return pt.SignificantPeriods(8)
	}
	wantPeriods := detect(live.Values)

	// Text codec round trip through a real file.
	textPath := filepath.Join(dir, "turb3d.trc")
	f, err := os.Create(textPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteEventText(f, live); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f, err = os.Open(textPath)
	if err != nil {
		t.Fatal(err)
	}
	ev, _, err := trace.ReadText(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := detect(ev.Values)
	if len(got) != len(wantPeriods) {
		t.Fatalf("text replay periods %v, live %v", got, wantPeriods)
	}
	for i := range got {
		if got[i] != wantPeriods[i] {
			t.Fatalf("text replay periods %v, live %v", got, wantPeriods)
		}
	}

	// Binary codec round trip through a buffer.
	var buf bytes.Buffer
	if err := trace.WriteEventBinary(&buf, live); err != nil {
		t.Fatal(err)
	}
	ev2, _, err := trace.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got2 := detect(ev2.Values)
	for i := range got2 {
		if got2[i] != wantPeriods[i] {
			t.Fatalf("binary replay periods %v, live %v", got2, wantPeriods)
		}
	}
}

// TestPipelinePublicInterfaceOnAppStream: the paper's Table 1 interface
// consuming a real application stream end to end.
func TestPipelinePublicInterfaceOnAppStream(t *testing.T) {
	tr := apps.Tomcatv().Trace()
	det := dpd.NewDPD()
	if err := det.WindowSize(32); err != nil {
		t.Fatal(err)
	}
	starts := 0
	var lastPeriod int
	for _, v := range tr.Values {
		s, p := det.Feed(v)
		if s != 0 {
			starts++
			lastPeriod = p
		}
	}
	if lastPeriod != 5 {
		t.Fatalf("period=%d, want 5", lastPeriod)
	}
	// 750 iterations; segmentation starts shortly after window fill.
	if starts < 700 {
		t.Fatalf("starts=%d, want ≈740+", starts)
	}
}

// TestPipelineFigure6Wiring: DITools → DPD → SelfAnalyzer on the live
// runtime, asserting the analyzer's view agrees with the runtime's own
// accounting.
func TestPipelineFigure6Wiring(t *testing.T) {
	m := machine.New(8)
	reg := ditools.NewRegistry()
	rt := nanos.MustNew(m, machine.DefaultCostModel(), 8, reg)
	sa := selfanalyzer.MustAttach(rt, reg, selfanalyzer.Config{})

	app := apps.Swim()
	app.RunIterations(rt, 50)

	if sa.Events() != reg.Calls() {
		t.Fatalf("analyzer saw %d events, registry %d", sa.Events(), reg.Calls())
	}
	r := sa.Region()
	if r == nil || r.Period != 6 {
		t.Fatalf("region=%+v", r)
	}
	// Region start address is one of swim's body loops.
	if r.StartAddr < 0x402000 || r.StartAddr > 0x402000+6*0x40 {
		t.Fatalf("start address %#x outside swim's body", r.StartAddr)
	}
	// The runtime executed prologue (2) + 50×6 loops.
	if rt.LoopsExecuted() != 302 {
		t.Fatalf("loops executed=%d", rt.LoopsExecuted())
	}
	// Busy time never exceeds cpus × elapsed.
	if m.BusyTime() > 8*m.Now() {
		t.Fatal("busy time exceeds machine capacity")
	}
}

// TestPipelineCPUTraceToMagnitudeDetector: FT trace through the text
// codec and into the eq. (1) detector (the fig3 → fig4 path).
func TestPipelineCPUTraceToMagnitudeDetector(t *testing.T) {
	cpuTr := apps.FTCPUTrace(40, 99)
	var buf bytes.Buffer
	if err := trace.WriteCPUText(&buf, cpuTr); err != nil {
		t.Fatal(err)
	}
	_, rt, err := trace.ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.NewMagnitudeDetector(core.Config{Window: 100, Confirm: 3})
	if err != nil {
		t.Fatal(err)
	}
	var last dpd.Result
	for _, v := range rt.Samples {
		last = det.Feed(v)
	}
	if !last.Locked || last.Period < 43 || last.Period > 45 {
		t.Fatalf("replayed FT trace: %+v, want ≈44", last)
	}
}
