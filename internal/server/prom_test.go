package server

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dpd"
	"dpd/internal/obs"
)

// promLine matches one Prometheus text-exposition 0.0.4 line: a # TYPE
// header, or a sample `name[{label="value"}] number`.
var promLine = regexp.MustCompile(`^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|summary)|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"\})? [-+]?([0-9.e+-]+|NaN|Inf))$`)

// fixedSnapshot returns a fully-populated deterministic snapshot: every
// section present, every field nonzero where it matters, so the golden
// file pins the complete name set.
func fixedSnapshot() MetricsSnapshot {
	return MetricsSnapshot{
		UptimeSeconds:   12.5,
		ConnsActive:     3,
		ConnsTotal:      10,
		ConnsRejected:   1,
		OverloadSheds:   2,
		PendingBytes:    4096,
		PanicsRecovered: 1,
		FramesTotal:     1000,
		BatchesTotal:    900,
		SamplesTotal:    230400,
		PingsTotal:      50,
		IngestRate:      18432.5,
		EventsDelivered: 77,
		Disconnects: DisconnectCounts{
			EOF: 5, ReadError: 1, ProtocolError: 2, SlowConsumer: 1,
			WriteError: 1, Shutdown: 3, Overload: 2, Panic: 1, Other: 1,
		},
		Streams:              512,
		Shards:               2,
		ShardOccupancy:       []int{300, 212},
		Evicted:              9,
		CheckpointsTotal:     4,
		CheckpointErrors:     1,
		CheckpointSeq:        4,
		CheckpointAgeSeconds: 2.25,
		CheckpointStalls:     1,
		CheckpointInFlight:   0,
		TmpSwept:             1,
		RestoredStreams:      256,
		RestoreFallbacks:     1,
		RebalancesApplied:    2,
		WrongNodeRejects:     6,
		Cluster: &dpd.ClusterNodeMetrics{
			Self: "n1", Epoch: 7, Members: 3, StreamsOwned: 512,
			ReplicaStreams: 170, MigrationsIn: 2, MigrationsOut: 3,
			PromotedStreams: 1, ReplicationRounds: 40, ReplicationErrors: 1,
			FollowerLagFrames: 12, PendingDurableMarks: 2,
		},
		Adaptive: &dpd.AdaptiveStats{
			Enabled: true, MaxHot: 4, HotStreams: 2,
			Promotions: 5, Demotions: 3, Folds: 100,
		},
		Latency: &LatencyStats{
			Ingest:          obs.HistStat{Count: 125, SampleEvery: 8, P50Ns: 1500, P99Ns: 9000, P999Ns: 15000, MaxNs: 20000, MeanNs: 2000, SumNs: 250000},
			FeedBatch:       obs.HistStat{Count: 112, SampleEvery: 8, P50Ns: 1200, P99Ns: 7000, P999Ns: 11000, MaxNs: 12000, MeanNs: 1500, SumNs: 168000},
			CheckpointWrite: obs.HistStat{Count: 4, SampleEvery: 1, P50Ns: 2000000, P99Ns: 5000000, P999Ns: 5000000, MaxNs: 5000000, MeanNs: 2500000, SumNs: 10000000},
			MigrationPause:  obs.HistStat{Count: 3, SampleEvery: 1, P50Ns: 800000, P99Ns: 1500000, P999Ns: 1500000, MaxNs: 1500000, MeanNs: 900000, SumNs: 2700000},
		},
	}
}

// TestPrometheusGolden pins the full exposition of a fixed snapshot
// against testdata/metrics.prom: names, order, label sets and float
// rendering are all part of the server's scrape interface. The file is
// never rewritten from the code under test: an intentional exposition
// change edits it by hand.
func TestPrometheusGolden(t *testing.T) {
	snap := fixedSnapshot()
	got := string(appendPrometheus(nil, &snap))
	want, err := os.ReadFile(filepath.Join("testdata", "metrics.prom"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if got != string(want) {
		t.Errorf("prometheus exposition drifted from testdata/metrics.prom (edit the file by hand after an intentional change)\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Every line must parse as exposition 0.0.4 — a malformed line breaks
	// real scrapers regardless of golden agreement.
	for _, line := range strings.Split(strings.TrimRight(got, "\n"), "\n") {
		if !promLine.MatchString(line) {
			t.Errorf("line does not parse as Prometheus text exposition: %q", line)
		}
	}
}

// TestPrometheusEndpoint scrapes a live server with ?format=prometheus:
// right content type, parseable output, and the histogram families
// present even before any latency was sampled.
func TestPrometheusEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Pool: dpd.PoolConfig{Shards: 1, Detector: dpd.Config{Window: 32}}})
	defer shutdown(t, s)

	c := dialClient(t, s)
	defer c.close()
	c.sendEvents(1, []int64{1, 2, 3, 4})
	c.barrier(1)

	resp, err := http.Get("http://" + s.HTTPAddr() + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if !promLine.MatchString(line) {
			t.Errorf("live exposition line does not parse: %q", line)
		}
	}
	for _, want := range []string{
		"dpd_samples_total 4",
		"# TYPE dpd_ingest_latency_seconds summary",
		"# TYPE dpd_feed_batch_latency_seconds summary",
		"# TYPE dpd_checkpoint_write_seconds summary",
		"# TYPE dpd_migration_pause_seconds summary",
		`dpd_disconnects_total{reason="other"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("live exposition missing %q", want)
		}
	}
}

// TestDisconnectOtherBucket: an unknown closeReason lands in the
// counted "other" bucket instead of vanishing — the teardown-reason sum
// keeps tracking conns_total even across code drift.
func TestDisconnectOtherBucket(t *testing.T) {
	var m metrics
	m.disconnect(reasonEOF)
	m.disconnect(closeReason(200)) // a reason this build does not know
	m.disconnect(0)                // the zero reason is unknown too
	snap := m.snapshot(m.start.Add(1))
	if snap.Disconnects.EOF != 1 {
		t.Errorf("EOF = %d, want 1", snap.Disconnects.EOF)
	}
	if snap.Disconnects.Other != 2 {
		t.Errorf("Other = %d, want 2 (unknown reasons must be counted)", snap.Disconnects.Other)
	}
	total := snap.Disconnects.EOF + snap.Disconnects.ReadError + snap.Disconnects.ProtocolError +
		snap.Disconnects.SlowConsumer + snap.Disconnects.WriteError + snap.Disconnects.Shutdown +
		snap.Disconnects.Overload + snap.Disconnects.Panic + snap.Disconnects.Other
	if total != 3 {
		t.Errorf("disconnect sum = %d, want 3 (no teardown may be dropped)", total)
	}
}
