package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"time"

	"dpd"
	"dpd/internal/apps"
	"dpd/internal/core"
)

// nestedSetups is how many times paper-nested sets up; setup_s is their
// median and the last set-up's engines run the timed phase.
const nestedSetups = 11

// nestedApp is one SPECfp95 skeleton trace with its Table 2
// configuration: a DefaultLadder engine and a PeriodTracker.
type nestedApp struct {
	name   string
	vals   []int64
	expect []int
	eng    *dpd.MultiScaleEngine
	ms     *dpd.MultiScaleDetector
	pt     *dpd.PeriodTracker
	per    []dpd.Result
	got    []int
}

// buildNested generates the five traces and constructs their engines.
func buildNested() ([]*nestedApp, error) {
	var out []*nestedApp
	for _, a := range apps.SPECfp95() {
		det, err := newEngine(true, nil)
		if err != nil {
			return nil, err
		}
		eng := det.(*dpd.MultiScaleEngine)
		out = append(out, &nestedApp{
			name: a.Name, vals: a.Trace().Values, expect: a.ExpectPeriods,
			eng: eng, ms: eng.Ladder(), pt: dpd.NewPeriodTracker(),
			per: make([]dpd.Result, len(dpd.DefaultLadder)),
		})
	}
	return out, nil
}

// passSpans collects the optional per-batch timings of a pass.
type passSpans struct {
	apply   []float64     // µs per full batch (feed + tracker)
	traced  bool          // split feed and tracker into separate spans
	rounds  time.Duration // total time of traced rounds
	feed    time.Duration
	tracker time.Duration
	buf     [batchLen][]dpd.Result
}

// pass replays the app's trace once from a reset engine, exactly as
// Table 2 does, and reports whether the tracker found the expected
// periodicities. delays, when non-nil, receives each ladder level's
// first lock on a true period (samples consumed, 0 if never).
func (a *nestedApp) pass(sp *passSpans, delays []uint64) bool {
	p0 := time.Now()
	a.eng.Reset()
	a.pt.Reset()
	for off := 0; off < len(a.vals); off += batchLen {
		batch := a.vals[off:min(off+batchLen, len(a.vals))]
		t0 := time.Now()
		switch {
		case sp != nil && sp.traced:
			for j, v := range batch {
				if cap(sp.buf[j]) < len(a.per) {
					sp.buf[j] = make([]dpd.Result, len(a.per))
				}
				a.ms.FeedInto(v, sp.buf[j])
			}
			t1 := time.Now()
			for j := range batch {
				for i, r := range sp.buf[j] {
					a.pt.Observe(r, a.ms.Level(i).Window())
				}
			}
			sp.feed += t1.Sub(t0)
			sp.tracker += time.Since(t1)
		case delays != nil:
			for _, v := range batch {
				mr := a.ms.FeedInto(v, a.per)
				a.pt.ObserveMulti(mr, a.ms)
				for i, r := range mr.PerLevel {
					if delays[i] == 0 && r.Locked && slices.Contains(a.expect, r.Period) {
						delays[i] = r.T + 1
					}
				}
			}
		default:
			for _, v := range batch {
				a.pt.ObserveMulti(a.ms.FeedInto(v, a.per), a.ms)
			}
		}
	}
	a.got = a.pt.AppendSignificant(8, a.got[:0])
	if sp != nil {
		sp.apply = append(sp.apply, us(time.Since(p0)))
	}
	return slices.Equal(a.got, a.expect)
}

// lockedOnTrue counts the ladder levels that have seen at least two
// windows of samples, and how many of them end locked on a true period.
func (a *nestedApp) lockedOnTrue() (eligible, locked int) {
	for i := 0; i < a.ms.Levels(); i++ {
		lvl := a.ms.Level(i)
		if len(a.vals) >= 2*lvl.Window() {
			eligible++
			if slices.Contains(a.expect, lvl.Locked()) {
				locked++
			}
		}
	}
	return eligible, locked
}

// order returns a seeded permutation of the apps for one pass.
func order(r *rng, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// nestedSetup builds the traces and engines and runs the cold, checked
// first pass; it returns the apps and every (app, level) lock delay.
func nestedSetup(r *rng, res *result) ([]*nestedApp, []float64, error) {
	as, err := buildNested()
	if err != nil {
		return nil, nil, err
	}
	var delays []float64
	for _, i := range order(r, len(as)) {
		a := as[i]
		d := make([]uint64, a.ms.Levels())
		res.count(a.pass(nil, d), "%s cold pass: periods %v, want %v", a.name, a.got, a.expect)
		for _, v := range d {
			if v > 0 {
				delays = append(delays, float64(v))
			}
		}
	}
	return as, delays, nil
}

// runNested runs paper-nested: one goroutine replays the five traces,
// in a seeded order per pass, for dur.
func runNested(seed uint64, dur time.Duration, trace bool, workdir string, res *result) error {
	r := rng{s: seed}
	var setup []float64
	var as []*nestedApp
	var delays []float64
	for i := 0; i < nestedSetups; i++ {
		heapInUse()
		t0 := time.Now()
		var err error
		if as, delays, err = nestedSetup(&r, res); err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	samples := 0
	for _, a := range as {
		samples += len(a.vals)
	}

	var rounds, tracedRounds, query, ckpt []float64
	sp := &passSpans{}
	// With tracing, rounds rotate untraced, traced, and a replay of one
	// pass through the layer replays, so the layer figures share the
	// e2e figures' host-speed phases.
	var ly *layers
	if trace {
		var err error
		if ly, err = newLayers(&layerReplay{banks: dpd.DefaultLadder, ladder: true, pool: nestedServed(as).poolConfig()}); err != nil {
			return err
		}
	}
	ckptBuf := make([]byte, 0, 1<<20)
	refs := []float64{hostRefNs()}
	steal := stealMeter()
	start, lastRef := time.Now(), time.Now()
	minRounds := 1
	if trace {
		minRounds = 3 // at least one untraced, one traced and one replay round
	}
	for i := 0; i < minRounds || time.Since(start) < dur; i++ {
		if trace && i%3 == 2 {
			ly.forget()
			if err := ly.replay(nestedPass(as, uint64(i)*uint64(len(as)))); err != nil {
				ly.pool.Close()
				return err
			}
			continue
		}
		sp.traced = trace && i%3 == 1
		t0 := time.Now()
		for _, j := range order(&r, len(as)) {
			a := as[j]
			res.count(a.pass(sp, nil), "%s pass %d: periods %v, want %v", a.name, i, a.got, a.expect)
		}
		per := float64(time.Since(t0).Nanoseconds()) / float64(samples)
		if sp.traced {
			sp.rounds += time.Since(t0)
			tracedRounds = append(tracedRounds, per)
		} else {
			rounds = append(rounds, per)
		}

		// Queries and a checkpoint of every engine between passes,
		// outside the pass timing.
		for g := 0; g < 20; g++ {
			q0 := time.Now()
			for k := 0; k < 1000; k++ {
				_ = as[k%len(as)].eng.Snapshot()
			}
			query = append(query, us(time.Since(q0))/1000)
		}
		c0 := time.Now()
		for _, a := range as {
			var err error
			ckptBuf, err = core.AppendCheckpoint(a.eng, ckptBuf[:0])
			res.count(err == nil, "%s checkpoint: %v", a.name, err)
		}
		ckpt = append(ckpt, ms(time.Since(c0)))
		if time.Since(lastRef) > time.Second {
			refs = append(refs, hostRefNs())
			lastRef = time.Now()
		}
	}
	res.diag["host.steal_frac"] = steal()
	res.refs = append(res.refs, refs...)
	res.diag["rounds"] = len(rounds)
	res.diag["passes"] = len(sp.apply)
	res.diag["inputs_fp"] = nestedFingerprint(as, seed)

	eligible, locked := 0, 0
	for _, a := range as {
		e, l := a.lockedOnTrue()
		eligible += e
		locked += l
	}
	if eligible == 0 || len(delays) == 0 {
		res.fail("no ladder level locked on a true period")
	}
	if !trace {
		m := res.metrics
		m.set("setup_s", median(setup), "s")
		m.set("ns_per_sample", median(rounds), "ns")
		m.set("apply_p50_us", quantile(sp.apply, 0.5), "us")
		m.set("lock_delay_samples", median(delays), "samples")
		m.set("locked_frac", float64(locked)/float64(eligible), "ratio")
		m.set("peak_rss_mb", peakRSSMB(), "MB")
		return nil
	}
	unbounded(res.metrics, sp.apply, query, ckpt)
	return nestedLayers(as, seed, median(rounds), median(tracedRounds), sp, samples*len(tracedRounds), ly, workdir, res)
}

// nestedFingerprint identifies paper-nested's inputs: an FNV-1a hash of
// the traces and of the seed's app order for the first 32 passes.
func nestedFingerprint(as []*nestedApp, seed uint64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, a := range as {
		for _, v := range a.vals {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	r := rng{s: seed}
	for pass := 0; pass < 32; pass++ {
		for _, i := range order(&r, len(as)) {
			h.Write([]byte{byte(i)})
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
