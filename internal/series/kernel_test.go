package series

import (
	"bytes"
	"fmt"
	"slices"
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

// pushPaths counts a differential's level pushes by path. A level of
// fewer lags than its window whose smallest zero lag the sample repeats
// takes its own row: kept when that row equals the one it replaces,
// deferred when it marks its counts stale, applied otherwise. The other
// levels apply the shared words: own counts the pushes whose words
// were a repeating level's row, probe and scan those that built them by
// the period probe or the previous-occurrence scan. thaws counts the
// stale levels whose planes a push rebuilt, and staleLoads the reloads
// taken while a level was stale.
type pushPaths struct {
	kept, deferred, applied, own, probe, scan, thaws, staleLoads int
}

// unbuilt fills the word scratch before a push, so a push that leaves it
// built no words; a built word never has this value on the
// differential's streams.
const unbuilt = 0x9E3779B97F4A7C15

// Level push paths, as pushPaths names them; shared is a push of the
// shared words.
const (
	shared = iota
	kept
	deferred
	applied
)

// path returns the path level l takes for sample v by the rule of
// CountBank.apply, read through the level's queries, and the repeated
// zero lag (0 if none).
func path(l *CountLevel, v int64) (int, int) {
	p := l.FirstConfirmed(1)
	if p == 0 || p > l.window+1 {
		return shared, 0
	}
	if x, _ := l.Recent(p - 1); x != v {
		return shared, 0
	}
	if l.lags >= l.window {
		return shared, p
	}
	r := (l.row - p + l.window) % l.window
	if slices.Equal(l.rows[r*l.wpl:][:l.wpl], l.rows[l.row*l.wpl:][:l.wpl]) {
		return kept, p
	}
	if l.ZeroRun(p) >= l.lags-p+1 {
		return deferred, p
	}
	return applied, p
}

// push classifies b's push of v, waking due levels the way Push will,
// pushes it, and checks what the push left against the paths: a kept
// or deferred level's planes did not move, only a deferred level newly
// went stale, and the words were built exactly when no repeating level
// covered the levels that needed them.
func (c *pushPaths) push(t *testing.T, at string, b *CountBank, v int64) {
	t.Helper()
	awake, src := b.awake, b.src
	wake := awake < len(b.lv) && b.t >= b.lv[awake].wake
	if wake {
		if awake == 0 || b.lv[awake].lags >= b.lv[src].lags {
			src = awake
		}
		awake++
	}
	s := b.t
	paths := make([]int, awake)
	planes := make([][]uint64, awake)
	stale := make([]bool, awake)
	need, rowLags, probe := 0, 0, 0
	for i := range paths {
		l := &b.lv[i]
		var p int
		paths[i], p = path(l, v)
		if p != 0 && (probe == 0 || p < probe) {
			probe = p
		}
		if paths[i] == shared {
			need = max(need, l.lags)
		} else {
			rowLags = max(rowLags, l.lags)
		}
		planes[i], stale[i] = slices.Clone(l.planes), l.stale
	}
	for k := range b.words {
		b.words[k] = unbuilt
	}
	b.Push(v)
	for i, pa := range paths {
		l := &b.lv[i]
		switch pa {
		case kept:
			c.kept++
		case deferred:
			c.deferred++
		case applied:
			c.applied++
		}
		if (pa == kept || pa == deferred) && !slices.Equal(planes[i], l.planes) {
			t.Fatalf("%s level %d: path %d moved the planes", at, i, pa)
		}
		if want := pa == deferred || pa == kept && stale[i]; l.stale != want {
			t.Fatalf("%s level %d: path %d left stale=%v, was %v", at, i, pa, l.stale, stale[i])
		}
		if stale[i] && !l.stale {
			c.thaws++
		}
	}
	if wake || need == 0 || s == 0 {
		// A wake replays through the scratch; no level to apply or no
		// lag to compare builds nothing.
		return
	}
	built := b.words[0] != unbuilt
	switch {
	case rowLags >= need:
		c.own++
		if built {
			t.Fatalf("%s: words built though a repeating level of %d lags covers %d", at, rowLags, need)
		}
	case !built:
		t.Fatalf("%s: no words built for %d lags", at, need)
	case probe != 0 && probe <= min(int(s), need, b.lv[src].window):
		c.probe++
	default:
		c.scan++
	}
}

func (c *pushPaths) add(o pushPaths) {
	c.kept += o.kept
	c.deferred += o.deferred
	c.applied += o.applied
	c.own += o.own
	c.probe += o.probe
	c.scan += o.scan
	c.thaws += o.thaws
	c.staleLoads += o.staleLoads
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
			for li := range b.lv {
				if b.lv[li].stale {
					paths.staleLoads++
					break
				}
			}
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
		paths.push(t, fmt.Sprintf("geometry %d alpha %d push %d", gi, alpha, i), b, v)
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
// geometry ran the previous-occurrence scan, that the period probe ran
// exactly where a repeating level cannot always supply the words, that
// a level kept or deferred its row on every geometry with a level of
// fewer lags than its window and on no other, that deferral and the
// rebuild of stale planes each ran on several geometries, and that a
// reload met a stale level, then runs a period longer than a word
// through a lone level's own row and through the probe.
func TestCountKernelMatchesReference(t *testing.T) {
	var all pushPaths
	deferredOn, thawedOn := 0, 0
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
		short, allShort, firstMost := false, true, true
		for i, w := range g.windows {
			short = short || g.lags[i] < w
			allShort = allShort && g.lags[i] < w
			firstMost = firstMost && g.lags[i] <= g.lags[0]
		}
		// The probe never runs where every level has fewer lags than its
		// window and the first, shortest window has the most lags: a level
		// holding zero lag p, at most its lags, makes the first level hold
		// p zero too; the first level's smallest zero lag then divides p
		// (Fine and Wilf, as p is below its window), so it repeats
		// whenever any level does, and its row covers every level's lags.
		// Everywhere else the probe runs.
		if noProbe := allShort && firstMost; paths.scan == 0 || noProbe != (paths.probe == 0) {
			t.Fatalf("geometry %d: probe pushes %d, scan pushes %d", gi, paths.probe, paths.scan)
		}
		if repeats := paths.kept + paths.deferred; short != (repeats > 0) {
			t.Fatalf("geometry %d: %d kept or deferred level pushes, with a level of fewer lags than window: %v", gi, repeats, short)
		}
		if paths.deferred > 0 {
			deferredOn++
		}
		if paths.thaws > 0 {
			thawedOn++
		}
		all.add(paths)
		t.Logf("geometry %d: level pushes kept %d, deferred %d, applied %d; words from a level's row %d, probe %d, scan %d; thaws %d",
			gi, paths.kept, paths.deferred, paths.applied, paths.own, paths.probe, paths.scan, paths.thaws)
		// The periods above stay under 64 lags, so the probe never copies
		// a whole word of low bits. A period of 70 over five symbols makes
		// lags below it match now and then, so those words are not all
		// ones. The lone level takes its own row of s-70 on every path;
		// on DefaultLadder's shape, run without a reset so the 1024 level
		// wakes, the 256 level repeats while the 1024 level still needs
		// words, which the probe builds.
		if gi == 3 || gi == 10 {
			p := checkKernel(t, gi, 5, 70, uint64(gi), 1600, 1600, 1100)
			if gi == 3 && (p.kept+p.deferred == 0 || p.applied == 0) || gi == 10 && p.probe == 0 {
				t.Fatalf("geometry %d period 70: kept %d, deferred %d, applied %d, probe %d",
					gi, p.kept, p.deferred, p.applied, p.probe)
			}
			t.Logf("geometry %d period 70: kept %d, deferred %d, applied %d; probe %d",
				gi, p.kept, p.deferred, p.applied, p.probe)
		}
	}
	if deferredOn < 6 || thawedOn < 6 {
		t.Fatalf("deferral ran on %d geometries and a thaw on %d, want 6 each", deferredOn, thawedOn)
	}
	if all.staleLoads == 0 {
		t.Fatal("no reload met a stale level")
	}
	t.Logf("reloads with a stale level: %d", all.staleLoads)
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
