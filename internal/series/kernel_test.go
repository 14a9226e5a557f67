package series

import (
	"bytes"
	"fmt"
	"testing"

	"dpd/internal/wire"
)

// kernelGeometries are the bank shapes the differential drives: one-level
// banks of few and many lags (including lags > window, window 1, whose
// counts fit one plane, and lags == window, whose shifted row at
// q == window is the one the push replaces), ladders whose top level
// probes 127, 256 and 299 lags, a ladder whose lags shrink as its
// windows grow, so the rows a push shifts must come from the level with
// the most lags rather than the last awake one, DefaultLadder's own
// shape, and ladders whose first level probes more lags than its
// window+1 while a later level is the source, so a zero lag there past
// window+1 proves no period.
var kernelGeometries = []kernelGeometry{
	{[]int{1}, []int{3}, false},
	{[]int{8}, []int{7}, false},
	{[]int{16}, []int{16}, false},
	{[]int{100}, []int{99}, false},
	{[]int{300}, []int{256}, false},
	{[]int{64}, []int{300}, false},
	{[]int{8, 32, 128}, []int{7, 31, 127}, true},
	{[]int{4, 16, 64, 257}, []int{3, 15, 63, 256}, true},
	{[]int{8, 300}, []int{8, 299}, true},
	{[]int{16, 64}, []int{15, 9}, true},
	{[]int{8, 32, 256, 1024}, []int{7, 31, 255, 1023}, true},
	{[]int{8, 200}, []int{20, 199}, true},
	{[]int{4, 100}, []int{30, 99}, true},
}

type kernelGeometry struct {
	windows, lags []int
	ladder        bool
}

func (g *kernelGeometry) build() *CountBank {
	if g.ladder {
		return NewCountLadder(g.windows, g.lags)
	}
	return NewCountBank(g.windows[0], g.lags[0])
}

// kernelStream generates the differential's input: alternating phases of
// a periodic pattern, uniform noise and never-repeating values over an
// alphabet of alpha symbols.
type kernelStream struct {
	rng     *RNG
	alpha   int
	pattern []int64
	phase   int
	left    int
	next    int64
}

func newKernelStream(seed uint64, alpha, period int) *kernelStream {
	s := &kernelStream{rng: NewRNG(seed), alpha: alpha, next: 1 << 40}
	s.pattern = make([]int64, period)
	for i := range s.pattern {
		s.pattern[i] = s.symbol()
	}
	return s
}

func (s *kernelStream) symbol() int64 {
	// Spread symbols over the int64 range so the history compares see
	// negative and large keys, not just 0..alpha-1.
	return int64(uint64(s.rng.Intn(s.alpha)) * 0x9E3779B97F4A7C15 >> 3)
}

func (s *kernelStream) at(i int) int64 {
	if s.left == 0 {
		s.phase = s.rng.Intn(4)
		s.left = 50 + s.rng.Intn(600)
	}
	s.left--
	switch s.phase {
	case 0, 1:
		return s.pattern[i%len(s.pattern)]
	case 2:
		return s.symbol()
	default:
		s.next++
		return s.next
	}
}

// ladderState encodes every level of b plus its pending samples and
// sample count, the way a ladder detector checkpoints its bank.
func ladderState(b *CountBank) []byte {
	var buf []byte
	for i := range b.lv {
		buf = b.Level(i).AppendState(buf)
	}
	buf = b.AppendPending(buf)
	return wire.AppendUvarint(buf, b.Len())
}

// loadLadderState restores what ladderState wrote.
func loadLadderState(b *CountBank, data []byte) error {
	b.StartLoad()
	off := 0
	for i := range b.lv {
		n, err := b.Level(i).LoadState(data[off:])
		if err != nil {
			return err
		}
		off += n
	}
	n, err := b.LoadPending(data[off:])
	if err != nil {
		return err
	}
	d := wire.NewDec(data[off+n:])
	t := d.Uvarint()
	if err := d.Err(); err != nil {
		return err
	}
	return b.FinishLoad(t)
}

// pushPaths counts a differential's pushes by how their mismatch words
// were built: by the one-probe period shift or by the previous-occurrence
// scan. steady counts the probe pushes that built no words at all (the
// steady skip), and shared those of them taken with more than one level
// awake.
type pushPaths struct{ probe, scan, steady, shared int }

// unbuilt fills the word scratch before a push, so a push that leaves it
// built no words; a built word never has this value on the
// differential's streams.
const unbuilt = 0x9E3779B97F4A7C15

// push classifies b's push of v, waking due levels the way Push will (a
// waking level has no zero lag yet, so only the source can change), and
// pushes it.
func (c *pushPaths) push(b *CountBank, v int64) {
	awake, src := b.awake, b.src
	if awake < len(b.lv) && b.t >= b.lv[awake].wake {
		if awake == 0 || b.lv[awake].lags >= b.lv[src].lags {
			src = awake
		}
		awake++
	}
	if awake > 0 && b.period(b.t, v, &b.lv[src], b.lv[:awake]) != 0 {
		c.probe++
	} else {
		c.scan++
	}
	for k := range b.words {
		b.words[k] = unbuilt
	}
	b.Push(v)
	if b.t > 1 && b.awake > 0 && b.words[0] == unbuilt {
		c.steady++
		if b.awake > 1 {
			c.shared++
		}
	}
}

func (c *pushPaths) add(o pushPaths) {
	c.probe += o.probe
	c.scan += o.scan
	c.steady += o.steady
	c.shared += o.shared
}

// checkKernel drives one geometry and stream through the kernel and
// through per-level references fed from the start, comparing every
// query after every push.
func checkKernel(t *testing.T, gi int, alpha, period int, seed uint64, n, resetAt, loadAt int) (paths pushPaths) {
	t.Helper()
	g := &kernelGeometries[gi]
	b := g.build()
	var refs []*countBankReference
	fresh := func() {
		refs = refs[:0]
		for i, w := range g.windows {
			refs = append(refs, newCountBankReference(w, g.lags[i]))
		}
	}
	fresh()
	src := newKernelStream(seed, alpha, period)
	for i := 0; i < n; i++ {
		if i == resetAt {
			b.Reset()
			fresh()
		}
		if i == loadAt {
			nb := g.build()
			var err error
			if g.ladder {
				err = loadLadderState(nb, ladderState(b))
			} else {
				_, err = nb.LoadState(b.AppendState(nil))
			}
			if err != nil {
				t.Fatalf("geometry %d push %d: reload: %v", gi, i, err)
			}
			b = nb
		}
		v := src.at(i)
		paths.push(b, v)
		for _, r := range refs {
			r.push(v)
		}
		for li, r := range refs {
			checkLevel(t, fmt.Sprintf("geometry %d alpha %d push %d level %d", gi, alpha, i, li), b.Level(li), r)
		}
	}
	return paths
}

// checkLevel compares every query of l with its reference r. A sleeping
// level has no mismatch counts yet, so only its zero state and
// candidates are compared.
func checkLevel(t *testing.T, at string, l *CountLevel, r *countBankReference) {
	t.Helper()
	awake := l.Len() > 0
	for m := 1; m <= r.lags; m++ {
		if awake && l.Ones(m) != r.counts[m-1].Ones() {
			t.Fatalf("%s lag %d: Ones=%d, reference %d", at, m, l.Ones(m), r.counts[m-1].Ones())
		}
		if l.Zero(m) != r.counts[m-1].Zero() || l.ZeroRun(m) != r.zeroRun[m-1] {
			t.Fatalf("%s lag %d: Zero=%v run %d, reference %v run %d",
				at, m, l.Zero(m), l.ZeroRun(m), r.counts[m-1].Zero(), r.zeroRun[m-1])
		}
	}
	for _, c := range []int{1, 3} {
		if got, want := l.FirstConfirmed(c), r.firstConfirmed(c); got != want {
			t.Fatalf("%s confirm %d: candidate %d, reference %d", at, c, got, want)
		}
	}
}

// TestCountKernelMatchesReference runs the differential over every
// geometry at alphabet sizes from 1 to 300 and checks that every
// geometry ran both the period probe and the previous-occurrence scan,
// that the steady skip ran on every one-level geometry with fewer lags
// than its window, and on no other geometry while more than one level
// was awake or with as many lags as window, then probes a period longer
// than a word on two geometries.
func TestCountKernelMatchesReference(t *testing.T) {
	for gi := range kernelGeometries {
		g := &kernelGeometries[gi]
		var paths pushPaths
		for _, alpha := range []int{1, 5, 62, 128, 129, 300} {
			// Reload once every level is awake, then early while the
			// deep levels still sleep.
			for _, at := range [][2]int{{700, 1100}, {1500, 200}} {
				paths.add(checkKernel(t, gi, alpha, 1+alpha%13, uint64(gi*1000+alpha), 1600, at[0], at[1]))
			}
		}
		if paths.probe == 0 || paths.scan == 0 {
			t.Fatalf("geometry %d: probe pushes %d, scan pushes %d: both paths must run", gi, paths.probe, paths.scan)
		}
		if paths.shared != 0 {
			t.Fatalf("geometry %d: %d steady skips with more than one level awake", gi, paths.shared)
		}
		short := g.lags[0] < g.windows[0]
		if !g.ladder && short && paths.steady == 0 {
			t.Fatalf("geometry %d: one level of %d lags, window %d, and no steady skip", gi, g.lags[0], g.windows[0])
		}
		if !short && paths.steady != 0 {
			t.Fatalf("geometry %d: %d steady skips with %d lags over window %d", gi, paths.steady, g.lags[0], g.windows[0])
		}
		t.Logf("geometry %d: probe pushes %d (steady %d), scan pushes %d", gi, paths.probe, paths.steady, paths.scan)
		// The periods above stay under 64 lags, so the probe never copies
		// a whole word of low bits. A period of 70 over five symbols makes
		// lags below it match now and then, so those words are not all
		// ones.
		if gi == 3 || gi == 10 {
			if p := checkKernel(t, gi, 5, 70, uint64(gi), 1600, 700, 1100); p.probe == 0 {
				t.Fatalf("geometry %d period 70: no probe pushes", gi)
			}
		}
	}
}

// TestCountLevelSaturatesAndRoundTrips: never-repeating input drives
// every lag's count to exactly window, which sets the top count plane;
// the bank survives an AppendState/LoadState round trip there and then
// follows a periodic phase back to zero in step with the per-lag
// reference. A checkpoint carrying a count of window+1 is refused.
func TestCountLevelSaturatesAndRoundTrips(t *testing.T) {
	for _, g := range []struct{ window, lags int }{{1, 3}, {7, 6}, {8, 7}, {100, 99}, {256, 300}, {1024, 1023}} {
		b := NewCountBank(g.window, g.lags)
		ref := newCountBankReference(g.window, g.lags)
		n := g.window + g.lags
		for i := 0; i < n; i++ {
			v := int64(1<<40 + i)
			b.Push(v)
			ref.push(v)
		}
		for m := 1; m <= g.lags; m++ {
			if b.Ones(m) != g.window {
				t.Fatalf("window %d lag %d: %d mismatches after %d distinct samples, want %d", g.window, m, b.Ones(m), n, g.window)
			}
		}
		state := b.AppendState(nil)
		nb := NewCountBank(g.window, g.lags)
		if _, err := nb.LoadState(state); err != nil {
			t.Fatalf("window %d: saturated state rejected: %v", g.window, err)
		}
		if again := nb.AppendState(nil); !bytes.Equal(again, state) {
			t.Fatalf("window %d: saturated state does not round-trip", g.window)
		}
		b = nb
		const period = 3
		for i := 0; i < n+g.window; i++ {
			v := int64(i % period)
			b.Push(v)
			ref.push(v)
			checkLevel(t, fmt.Sprintf("window %d periodic push %d", g.window, i), b.CountLevel, ref)
		}
		for m := period; m <= g.lags; m += period {
			if !b.Zero(m) {
				t.Fatalf("window %d: lag %d not back to zero", g.window, m)
			}
		}

		// The counts close the encoding, followed by the zero bitset
		// and zeroAt; at saturation each count is window's uvarint.
		counts := len(state) - 8*(b.wpl+g.lags) - g.lags*len(wire.AppendUvarint(nil, uint64(g.window)))
		bad := append([]byte(nil), state...)
		bad[counts]++
		if _, err := NewCountBank(g.window, g.lags).LoadState(bad); err == nil {
			t.Fatalf("window %d: count %d accepted", g.window, g.window+1)
		}
	}
}

// TestCountLadderRejectsDisagreeingLevels: a ladder load whose levels
// carry different histories of one stream is refused.
func TestCountLadderRejectsDisagreeingLevels(t *testing.T) {
	b := NewCountLadder([]int{8, 32}, []int{7, 31})
	for i := 0; i < 100; i++ {
		b.Push(int64(i % 5))
	}
	state := ladderState(b)
	if err := loadLadderState(NewCountLadder([]int{8, 32}, []int{7, 31}), state); err != nil {
		t.Fatalf("own state rejected: %v", err)
	}
	// Level 0's encoding is window, lags, t, row (one byte each here)
	// then its history; flip the newest history sample it carries.
	bad := append([]byte(nil), state...)
	bad[4+8*14] ^= 1
	if err := loadLadderState(NewCountLadder([]int{8, 32}, []int{7, 31}), bad); err == nil {
		t.Fatal("levels with disagreeing histories accepted")
	}
}

// FuzzCountBankVsReference differentially fuzzes the lag kernel against
// per-lag SlidingCount references: geometry, alphabet size (1…300),
// period, a Reset and a mid-stream AppendState/LoadState round trip are
// all fuzzer-chosen.
func FuzzCountBankVsReference(f *testing.F) {
	for gi := range kernelGeometries {
		for _, alpha := range []int{1, 5, 62, 129, 300} {
			f.Add(uint8(gi), uint16(alpha), uint8(6), uint64(alpha), uint16(900), uint16(400))
		}
	}
	f.Fuzz(func(t *testing.T, geom uint8, alpha uint16, period uint8, seed uint64, resetAt, loadAt uint16) {
		gi := int(geom) % len(kernelGeometries)
		a := 1 + int(alpha)%300
		checkKernel(t, gi, a, 1+int(period)%40, seed, 1400, int(resetAt)%2000, int(loadAt)%2000)
	})
}
