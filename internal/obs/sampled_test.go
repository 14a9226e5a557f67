package obs

import (
	"strings"
	"testing"
	"time"
)

// TestSampledHistStride: NewSampledHist(8) elects exactly 1 in 8 calls,
// and the zero value / NewSampledHist(1) elect every call.
func TestSampledHistStride(t *testing.T) {
	s := NewSampledHist(8)
	if s.SampleEvery() != 8 {
		t.Fatalf("SampleEvery = %d, want 8", s.SampleEvery())
	}
	elected := 0
	for i := 0; i < 8000; i++ {
		if s.Sampled() {
			elected++
			s.Observe(time.Duration(100 + i))
		}
	}
	if elected != 1000 {
		t.Errorf("elected %d of 8000 calls, want exactly 1000", elected)
	}
	if got := s.Stat().Count; got != 1000 {
		t.Errorf("Stat().Count = %d, want 1000", got)
	}

	var every SampledHist // zero value: stride 1
	for i := 0; i < 10; i++ {
		if !every.Sampled() {
			t.Fatal("zero-value SampledHist must elect every call")
		}
	}
	// Rounding: 5 rounds up to 8.
	if got := NewSampledHist(5).SampleEvery(); got != 8 {
		t.Errorf("NewSampledHist(5).SampleEvery() = %d, want 8", got)
	}
}

// TestSampledHistElectsEveryPosition: a caller whose calls repeat with
// a period that is a multiple of the stride (the server's stride of 8
// against a client pinging every 16 batches) still has every position
// of its period timed, each within a factor of two of an even share.
func TestSampledHistElectsEveryPosition(t *testing.T) {
	const period, calls = 16, 8000
	s := NewSampledHist(8)
	var hits [period]int
	for i := 0; i < calls; i++ {
		if s.Sampled() {
			hits[i%period]++
		}
	}
	total := 0
	even := calls / 8 / period
	for pos, n := range hits {
		if n < even/2 || n > 2*even {
			t.Errorf("position %d of a period-%d call pattern elected %d times, want %d..%d: %v",
				pos, period, n, even/2, 2*even, hits)
		}
		total += n
	}
	if total != 1000 {
		t.Errorf("elected %d of 8000 calls, want exactly 1000", total)
	}
}

// TestSampledHistNil: a nil histogram never elects and ignores
// observations, so instrumentation sites need no enabled-check.
func TestSampledHistNil(t *testing.T) {
	var s *SampledHist
	if s.Sampled() {
		t.Error("nil Sampled() = true")
	}
	s.Observe(time.Second)
	if st := s.Stat(); st.Count != 0 || st.SampleEvery != 0 {
		t.Errorf("nil Stat() = %+v, want zero", st)
	}
}

// TestSampledHistStat: quantiles and exact fields of a known
// distribution round-trip through Stat.
func TestSampledHistStat(t *testing.T) {
	var s SampledHist
	for v := 1; v <= 1000; v++ {
		if s.Sampled() {
			s.Observe(time.Duration(v))
		}
	}
	st := s.Stat()
	if st.Count != 1000 || st.SampleEvery != 1 {
		t.Fatalf("Count=%d SampleEvery=%d, want 1000/1", st.Count, st.SampleEvery)
	}
	if st.MaxNs != 1000 {
		t.Errorf("MaxNs = %d, want exact 1000", st.MaxNs)
	}
	if st.SumNs != 500500 {
		t.Errorf("SumNs = %d, want exact 500500", st.SumNs)
	}
	if st.P50Ns < 400 || st.P50Ns > 600 {
		t.Errorf("P50Ns = %d, want ≈500", st.P50Ns)
	}
	if st.P999Ns < st.P99Ns || st.P99Ns < st.P50Ns {
		t.Errorf("quantiles not monotone: %d %d %d", st.P50Ns, st.P99Ns, st.P999Ns)
	}
}

// TestSampledHistHotPathAllocFree: the Sampled gate and the elected
// Observe path are both 0 allocs/op.
func TestSampledHistHotPathAllocFree(t *testing.T) {
	s := NewSampledHist(8)
	if n := testing.AllocsPerRun(1000, func() {
		if s.Sampled() {
			s.Observe(42)
		}
	}); n != 0 {
		t.Fatalf("Sampled+Observe allocates %.1f objects/op, want 0", n)
	}
}

// TestNewSet: default strides, a live recorder, and nil-safety of Rec.
func TestNewSet(t *testing.T) {
	s := NewSet(0)
	if s.Recorder.Cap() != DefaultRecorderEvents {
		t.Errorf("recorder cap = %d, want %d", s.Recorder.Cap(), DefaultRecorderEvents)
	}
	if got := s.Ingest.SampleEvery(); got != DefaultIngestEvery {
		t.Errorf("Ingest stride = %d, want %d", got, DefaultIngestEvery)
	}
	if got := s.FeedBatch.SampleEvery(); got != DefaultFeedBatchEvery {
		t.Errorf("FeedBatch stride = %d, want %d", got, DefaultFeedBatchEvery)
	}
	if got := s.CheckpointWrite.SampleEvery(); got != 1 {
		t.Errorf("CheckpointWrite stride = %d, want 1 (every write timed)", got)
	}
	s.Rec().Record(SubPool, EvPromote, 1, 2)
	if s.Recorder.Len() != 1 {
		t.Error("Set recorder did not record")
	}
	var nilSet *Set
	if nilSet.Rec() != nil {
		t.Error("nil Set.Rec() must be nil")
	}
	nilSet.Rec().Record(SubPool, EvPromote, 1, 2) // must not panic
}

// TestPromHelpers: each Append* renders the exact exposition lines.
func TestPromHelpers(t *testing.T) {
	b := AppendPromCounter(nil, "x_total", 7)
	if got := string(b); got != "# TYPE x_total counter\nx_total 7\n" {
		t.Errorf("counter rendering:\n%q", got)
	}
	b = AppendPromGauge(nil, "g", 2.5)
	if got := string(b); got != "# TYPE g gauge\ng 2.5\n" {
		t.Errorf("gauge rendering:\n%q", got)
	}
	b = AppendPromLabeled(nil, "m", "shard", "3", 11)
	if got := string(b); got != `m{shard="3"} 11`+"\n" {
		t.Errorf("labeled rendering:\n%q", got)
	}
	st := HistStat{Count: 4, P50Ns: 500, P99Ns: 990, P999Ns: 999, SumNs: 2_000_000_000}
	out := string(AppendPromSummary(nil, "lat_seconds", st))
	for _, want := range []string{
		"# TYPE lat_seconds summary\n",
		`lat_seconds{quantile="0.5"} 5e-07` + "\n",
		"lat_seconds_sum 2\n",
		"lat_seconds_count 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q in:\n%s", want, out)
		}
	}
}
