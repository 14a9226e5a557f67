// Command dpdload generates ingest traffic against a running dpdserver:
// N connections × M keyed streams of periodic samples, batched, rate
// limited, ping-barriered — and reports end-to-end throughput in
// Melem/s with batch-accept latency quantiles. Connections ride the
// resilient internal/client, so a run survives server restarts and
// overload shedding, replaying unacked batches exactly once. It is the
// local stand-in for "heavy traffic from millions of users" and the
// driver of the serving integration test.
//
// Beyond the steady uniform sweep, dpdload speaks the adversarial
// dialects of internal/loadgen: zipf-skewed key popularity, churn
// storms through fresh key windows, bursty on/off arrivals, and mixed
// event/magnitude traffic — all reproducible from -seed.
//
//	dpdload -addr localhost:7700 -conns 8 -streams 1000 -samples 4096 -period 12
//	dpdload -dist zipf:0.99 -seed 42 -churn 8 -burst 4096:250ms -mixed
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"dpd"
	"dpd/internal/client"
	"dpd/internal/loadgen"
	"dpd/internal/obs"
)

// options carries every dpdload flag in parsed-string form, so flag
// handling is a pure testable function rather than main's side effects.
type options struct {
	addr        string
	cluster     string
	conns       int
	streams     int
	keyBase     uint64
	samples     int
	batch       int
	period      int
	stride      int64
	magnitude   bool
	rate        float64
	window      int
	ack         string
	retryBudget string

	dist  string
	seed  uint64
	churn int
	burst string
	mixed bool

	httpAddr  string
	quantiles bool
}

// buildConfig validates one dpdload invocation and assembles the
// loadgen spec it describes. All flag errors surface here.
func buildConfig(o options) (loadgen.Config, error) {
	cfg := loadgen.Config{
		Addr:             o.addr,
		ClusterHTTP:      splitAddrs(o.cluster),
		Conns:            o.conns,
		Streams:          o.streams,
		KeyBase:          o.keyBase,
		SamplesPerStream: o.samples,
		BatchSize:        o.batch,
		Period:           o.period,
		PatternStride:    o.stride,
		Magnitude:        o.magnitude,
		Rate:             o.rate,
		Window:           o.window,
	}
	switch o.ack {
	case "", "applied":
		cfg.Ack = client.AckApplied
	case "durable":
		cfg.Ack = client.AckDurable
	default:
		return loadgen.Config{}, fmt.Errorf("unknown -ack %q (want applied|durable)", o.ack)
	}
	if o.retryBudget != "" {
		d, err := time.ParseDuration(o.retryBudget)
		if err != nil {
			return loadgen.Config{}, fmt.Errorf("bad -retry-budget: %w", err)
		}
		cfg.RetryBudget = d
	}
	dist, err := loadgen.ParseDist(o.dist)
	if err != nil {
		return loadgen.Config{}, fmt.Errorf("bad -dist: %w", err)
	}
	phases, err := loadgen.ParseBurst(o.burst)
	if err != nil {
		return loadgen.Config{}, fmt.Errorf("bad -burst: %w", err)
	}
	if o.churn < 0 {
		return loadgen.Config{}, fmt.Errorf("bad -churn %d: want >= 0 generations", o.churn)
	}
	if o.mixed && o.magnitude {
		return loadgen.Config{}, fmt.Errorf("-mixed and -magnitude are exclusive: mixed already interleaves both traffic kinds")
	}
	cfg.Workload = loadgen.Workload{
		Dist:   dist,
		Seed:   o.seed,
		Churn:  o.churn,
		Phases: phases,
		Mixed:  o.mixed,
	}
	return cfg, nil
}

// splitAddrs parses a comma-separated address list, dropping empties.
func splitAddrs(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// printDetails renders the adversarial extras under the report's
// summary line: the per-phase breakdown, the hottest streams, and the
// workload fingerprint that must agree across same-seed runs.
func printDetails(w io.Writer, rep loadgen.Report) {
	if len(rep.Phases) > 1 || (len(rep.Phases) == 1 && rep.Phases[0].Name != "steady") {
		fmt.Fprintf(w, "phases:\n")
		for _, ph := range rep.Phases {
			fmt.Fprintf(w, "  %-8s %10d samples  %8.2f Melem/s  p50=%v p99=%v p999=%v\n",
				ph.Name, ph.Samples, ph.MelemsPerSec, ph.P50, ph.P99, ph.P999)
		}
	}
	type kc struct {
		key uint64
		n   uint64
	}
	hot := make([]kc, 0, len(rep.StreamSamples))
	for k, n := range rep.StreamSamples {
		hot = append(hot, kc{k, n})
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].n != hot[j].n {
			return hot[i].n > hot[j].n
		}
		return hot[i].key < hot[j].key
	})
	if len(hot) > 8 {
		hot = hot[:8]
	}
	fmt.Fprintf(w, "hottest streams:")
	for _, h := range hot {
		fmt.Fprintf(w, " %d×%d", h.key, h.n)
	}
	fmt.Fprintf(w, "\nworkload fingerprint: %#x over %d distinct streams\n",
		rep.Fingerprint, rep.DistinctStreams)
}

// printServerHotSet fetches the server's /metrics adaptive section and
// prints its hot set next to dpdload's own observed hottest streams, so
// a skewed run shows at a glance whether the celebrities the generator
// produced are the ones the server promoted.
func printServerHotSet(w io.Writer, httpAddr string) error {
	url := "http://" + httpAddr + "/metrics"
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var snap struct {
		Adaptive *dpd.AdaptiveStats `json:"adaptive"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	if snap.Adaptive == nil || !snap.Adaptive.Enabled {
		fmt.Fprintf(w, "server adaptive placement: disabled\n")
		return nil
	}
	a := snap.Adaptive
	fmt.Fprintf(w, "server hot set (%d/%d promoted; %d promotions, %d demotions, %d folds):",
		a.HotStreams, a.MaxHot, a.Promotions, a.Demotions, a.Folds)
	hot := append([]dpd.HotStreamInfo(nil), a.Hot...)
	sort.Slice(hot, func(i, j int) bool { return hot[i].Fed > hot[j].Fed })
	for _, h := range hot {
		fmt.Fprintf(w, " %d×%d (%.0f/s)", h.Key, h.Fed, h.Rate)
	}
	fmt.Fprintf(w, "\n")
	return nil
}

// printServerQuantiles fetches the server's /metrics latency section
// and prints each instrumented site's quantiles, so one run report
// shows client-observed accept latency and the server's own
// decode→applied, pool-batch, checkpoint and migration timings side by
// side.
func printServerQuantiles(w io.Writer, httpAddr string) error {
	url := "http://" + httpAddr + "/metrics"
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var snap struct {
		Latency *struct {
			Ingest          obs.HistStat `json:"ingest"`
			FeedBatch       obs.HistStat `json:"feed_batch"`
			CheckpointWrite obs.HistStat `json:"checkpoint_write"`
			MigrationPause  obs.HistStat `json:"migration_pause"`
		} `json:"latency"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	if snap.Latency == nil {
		fmt.Fprintf(w, "server latency: not reported (older server)\n")
		return nil
	}
	sites := []struct {
		name string
		st   obs.HistStat
	}{
		{"ingest", snap.Latency.Ingest},
		{"feed_batch", snap.Latency.FeedBatch},
		{"checkpoint_write", snap.Latency.CheckpointWrite},
		{"migration_pause", snap.Latency.MigrationPause},
	}
	fmt.Fprintf(w, "server latency quantiles:\n")
	for _, s := range sites {
		if s.st.Count == 0 {
			fmt.Fprintf(w, "  %-17s (no samples)\n", s.name)
			continue
		}
		fmt.Fprintf(w, "  %-17s p50 %v  p99 %v  p999 %v  max %v  (%d samples, 1-in-%d)\n",
			s.name,
			time.Duration(s.st.P50Ns), time.Duration(s.st.P99Ns),
			time.Duration(s.st.P999Ns), time.Duration(s.st.MaxNs),
			s.st.Count, s.st.SampleEvery)
	}
	return nil
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "localhost:7700", "dpdserver ingest address")
	flag.StringVar(&o.cluster, "cluster", "", "comma-separated cluster HTTP addresses: route batches per owner via the routing table (overrides -addr)")
	flag.IntVar(&o.conns, "conns", 4, "concurrent connections")
	flag.IntVar(&o.streams, "streams", 64, "total keyed streams, partitioned across connections")
	flag.Uint64Var(&o.keyBase, "key-base", 0, "first stream key")
	flag.IntVar(&o.samples, "samples", 4096, "samples per stream")
	flag.IntVar(&o.batch, "batch", 256, "samples per batch frame")
	flag.IntVar(&o.period, "period", 8, "synthetic pattern period")
	flag.Int64Var(&o.stride, "stride", 0, "per-stream value offset (0 = shared alphabet)")
	flag.BoolVar(&o.magnitude, "magnitude", false, "send magnitude batches (float64) instead of event batches")
	flag.Float64Var(&o.rate, "rate", 0, "aggregate rate limit in samples/second (0 = unlimited)")
	flag.IntVar(&o.window, "window", 0, "per-connection replay window in batches (0 = client default)")
	flag.StringVar(&o.ack, "ack", "applied", "window-release ack mode: applied|durable")
	flag.StringVar(&o.retryBudget, "retry-budget", "", "max retry time without progress (empty = client default)")
	flag.StringVar(&o.dist, "dist", "uniform", "key popularity: uniform or zipf:<theta> (e.g. zipf:0.99)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload PRNG seed: same seed + flags ⇒ identical sample sequence")
	flag.IntVar(&o.churn, "churn", 0, "churn generations: cycle streams through N fresh key windows (0/1 = off)")
	flag.StringVar(&o.burst, "burst", "", "bursty arrivals: <on-samples>:<off-duration> per connection (e.g. 4096:250ms)")
	flag.BoolVar(&o.mixed, "mixed", false, "interleave magnitude streams (every third key) with event streams")
	flag.StringVar(&o.httpAddr, "http", "", "dpdserver HTTP address: after the run, print the server's adaptive hot set next to the observed hottest streams")
	flag.BoolVar(&o.quantiles, "quantiles", false, "with -http: also print the server-side latency quantiles (ingest, feed, checkpoint, migration) next to the client-observed ones")
	flag.Parse()

	cfg, err := buildConfig(o)
	if err != nil {
		log.Fatalf("dpdload: %v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		log.Fatalf("dpdload: %v", err)
	}
	fmt.Println(rep)
	printDetails(os.Stdout, rep)
	if o.httpAddr != "" {
		if err := printServerHotSet(os.Stdout, o.httpAddr); err != nil {
			log.Fatalf("dpdload: %v", err)
		}
		if o.quantiles {
			if err := printServerQuantiles(os.Stdout, o.httpAddr); err != nil {
				log.Fatalf("dpdload: %v", err)
			}
		}
	}
}
