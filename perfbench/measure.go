package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported figure: a value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is a run's named figures, in the result line's "metrics" object.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// quantile returns the q-quantile of xs (0 ≤ q ≤ 1) by linear
// interpolation between order statistics; xs is not modified. An empty
// input yields NaN, which the result check rejects.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// which is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// us and ms convert durations to fractional microseconds and milliseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mix64 is the splitmix64 finalizer: every seeded choice of the
// benchmark's inputs is a pure function of it.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a seeded splitmix64 stream.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// intn returns a uniform draw in [0, n).
func (r *rng) intn(n int) int { return int((r.next() >> 32) * uint64(n) >> 32) }

// refLoopIters is the fixed host reference workload: a dependent
// multiply-xorshift chain whose cost depends only on the CPU's speed at
// the moment, not on memory or on this repository's code.
const refLoopIters = 1 << 20

var refSink uint64

// hostRefNs times the reference loop once and returns ns per iteration.
// Sampled several times per run, its median shows host-speed drift next
// to the run's figures; it never scales them.
func hostRefNs() float64 {
	x := uint64(0x1234567)
	t0 := time.Now()
	for i := 0; i < refLoopIters; i++ {
		x = x*0x5851f42d4c957f2d + 1
		x ^= x >> 29
	}
	d := time.Since(t0)
	refSink += x
	return float64(d.Nanoseconds()) / refLoopIters
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB. Where
// /proc is unavailable it falls back to the Go runtime's total reserved
// memory, an upper bound.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.Sys) / (1 << 20)
}

// cpuTicks reads the host's total and stolen CPU ticks from /proc/stat
// (zeros where it is unavailable). Steal is time this VM's vCPUs were
// runnable but the hypervisor ran something else.
func cpuTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealMeter starts measuring and returns a function reporting the
// share of the host's CPU time stolen since the start.
func stealMeter() func() float64 {
	tot0, steal0 := cpuTicks()
	return func() float64 {
		tot1, steal1 := cpuTicks()
		if tot1 <= tot0 {
			return 0
		}
		return float64(steal1-steal0) / float64(tot1-tot0)
	}
}

// heapInUse returns live heap bytes after a full collection.
func heapInUse() uint64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.HeapAlloc
}

// timePer runs fn(n) for batches of n calls until at least minCalls calls
// and minDur have elapsed, and returns the median ns per call over the
// batches. fn must perform exactly n calls of the measured operation.
// Single calls are never timed alone: a batch of n ≥ 1000 sub-µs calls
// is far above the clock's resolution.
func timePer(n, minCalls int, minDur time.Duration, fn func(n int)) float64 {
	var per []float64
	start := time.Now()
	for calls := 0; calls < minCalls || time.Since(start) < minDur; calls += n {
		t0 := time.Now()
		fn(n)
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}
