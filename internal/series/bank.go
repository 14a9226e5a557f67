package series

import (
	"fmt"
	"math"
	"math/bits"
)

// nextPow2 returns the smallest power of two >= n (minimum 1).
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << uint(bits.Len(uint(n-1)))
}

// CountBank is the lag kernel of the event metric (paper eq. 2). It
// keeps one history ring and feeds one or more CountLevels from it: a
// level maintains, for every lag m = 1..lags, the count of mismatches
// x[t] != x[t-m] over a sliding window of its last `window` comparisons,
// plus a packed bitset of the lags that are currently zero (full window,
// no mismatch) — the paper's d(m) == 0 predicate.
//
// One push builds the sample's mismatch bits at most once, packed into
// 64-lag words, for the most lags any level that needs them probes;
// each such level then runs its own loop over its prefix of those words
// against its own row ring. Lag j's mismatch bit is the same at every
// level, so a §4 ladder pays for one compare pass, not one per level.
// The counts are bit-sliced (Biham 1997): each 64-lag word keeps
// bits.Len(window) planes, plane p holding bit p of its 64 lags'
// counts, so applying a word costs one XOR against the row it replaces
// plus a word-wide ripple over the planes; on a locked periodic stream
// almost no bits change.
//
// The words come from the previous occurrence of the sample's value
// (the last-occurrence table of Boyer & Moore 1977 read as the shifted
// rows of shift-and matching, Baeza-Yates & Gonnet 1992): if v last
// occurred q lags back, lags 1..q-1 mismatch, lag q matches and lag q+m
// mismatches iff lag m did at that earlier sample, so the words are
// ones(q-1) | row(s-q) << q, read from the ring of the awake level with
// the most lags. The cost is a scan of q compares and a word shift,
// with no per-symbol state. A locked stream skips the scan: when a
// level holds lag p zero (p at most its window+1) and the sample
// repeats the one p back, the window already proves the samples since
// repeat with period p, so the words are row(s-p) & ones(p-1) |
// row(s-p) << p, one probe of the history and one word shift.
//
// A locked level needs no words at all: with fewer lags than its
// window, a sample repeating its smallest zero lag p has the level's own
// row of s-p as its row, which the level keeps, copies while deferring
// its counts, or applies (see CountLevel.repeat). A repeating level with
// enough lags supplies that row as the other levels' words. A one-level
// bank whose pushes keep their rows takes a whole run of them in one
// loop (PushKept), with no level loop per sample; once a window of them
// has run back to back, each costs one history compare and reads no row.
//
// Everything is allocation-free after construction.
type CountBank struct {
	hist  []int64      // power-of-two ring of the newest samples
	lv    []CountLevel // levels in wake order
	words []uint64     // the mismatch words of the sample being applied
	awake int          // levels [0, awake) consume samples, the rest sleep
	src   int          // the awake level with the most lags: its rows shift into the words
	t     uint64       // samples pushed so far

	// The first level, so a bank built by NewCountBank is used through
	// the level accessors directly; on a ladder they read level 0.
	*CountLevel

	loadEnd  uint64 // during a load: the sample count merged histories end at
	loadHave int    // during a load: newest samples merged into hist

	kept keptStreak // PushKept's run of back-to-back kept pushes; never serialized
}

// keptStreak is a run of n kept pushes, at most the window, that ends at
// sample count end (see CountBank.PushKept).
type keptStreak struct {
	end uint64
	n   int
}

// CountLevel is one window of a CountBank's ladder. It only reads the
// shared history; the bank feeds it.
type CountLevel struct {
	rows   []uint64 // window rows of packed mismatch bits; bit j = lag j+1
	planes []uint64 // bit-sliced counts: per 64-lag word, plane p holds count bit p
	zero   []uint64 // packed: bit j set iff lag j+1 is full and its count is 0
	zeroAt []uint64 // per-lag sample index when the zero state began
	wpl    int      // words per row: ceil(lags/64)
	bits   int      // count planes per word: bits.Len(window)
	lags   int      // M: probed lags 1..M
	window int      // N: comparisons per lag window
	row    int      // physical row for the next sample: n mod window
	n      uint64   // samples consumed: the bank's count once awake, 0 asleep
	ver    uint64   // moves whenever zero or zeroAt changes; never 0
	stale  bool     // planes lag the rows: counts are deferred (see repeat)

	b    *CountBank
	wake uint64 // index of the first sample the level is fed live
}

// NewCountBank returns a one-level bank of `lags` sliding mismatch
// windows of size `window`. It panics on sizes outside [1, MaxDim]
// (configuration bug).
func NewCountBank(window, lags int) *CountBank {
	return newCountBank([]int{window}, []int{lags}, false)
}

// NewCountLadder returns one bank holding a ladder of levels over a
// shared history: level i has windows[i] and lags[i]. A level sleeps
// until the stream reaches its window — it cannot report a zero lag
// before then — and on waking replays the samples so far from the
// shared ring, which leaves it exactly as if it had been fed from the
// start. Windows must strictly increase, lags need not; the constructor
// panics otherwise (configuration bug).
func NewCountLadder(windows, lags []int) *CountBank {
	return newCountBank(windows, lags, true)
}

// newCountBank builds a bank; levels sleep until their window when
// sleep is set and are awake from the first sample otherwise.
func newCountBank(windows, lags []int, sleep bool) *CountBank {
	if len(windows) == 0 || len(windows) != len(lags) {
		panic(fmt.Sprintf("series: count ladder windows %v and lags %v must be non-empty and paired", windows, lags))
	}
	reach, maxLags, words := 0, 0, 0
	for i, w := range windows {
		if w <= 0 || lags[i] <= 0 || w > MaxDim || lags[i] > MaxDim {
			panic(fmt.Sprintf("series: count bank window=%d lags=%d must be in [1,%d]", w, lags[i], MaxDim))
		}
		if i > 0 && w <= windows[i-1] {
			panic(fmt.Sprintf("series: count ladder windows %v must strictly increase", windows))
		}
		reach = max(reach, w+lags[i])
		maxLags = max(maxLags, lags[i])
		wpl := (lags[i] + 63) / 64
		words += (w+bits.Len(uint(w))+1)*wpl + lags[i]
	}
	var b *CountBank
	if len(windows) == 1 {
		box := &struct {
			b CountBank
			l [1]CountLevel
		}{}
		b = &box.b
		b.lv = box.l[:]
	} else {
		b = &CountBank{lv: make([]CountLevel, len(windows))}
	}
	b.CountLevel = &b.lv[0]
	b.hist = make([]int64, nextPow2(reach))
	// Every level's words and the push scratch share one allocation.
	mem := make([]uint64, words+(maxLags+63)/64)
	carve := func(n int) []uint64 {
		s := mem[:n:n]
		mem = mem[n:]
		return s
	}
	b.words = carve((maxLags + 63) / 64)
	for i, w := range windows {
		wpl := (lags[i] + 63) / 64
		l := &b.lv[i]
		*l = CountLevel{
			b:      b,
			ver:    1,
			window: w,
			lags:   lags[i],
			wpl:    wpl,
			bits:   bits.Len(uint(w)),
			rows:   carve(w * wpl),
			planes: carve(bits.Len(uint(w)) * wpl),
			zero:   carve(wpl),
			zeroAt: carve(lags[i]),
		}
		if sleep {
			l.wake = uint64(w)
		}
	}
	return b
}

// Len returns the number of samples pushed so far.
func (b *CountBank) Len() uint64 { return b.t }

// Level returns level i (0 = smallest window).
func (b *CountBank) Level(i int) *CountLevel { return &b.lv[i] }

// Awake returns the number of levels being fed: levels [0, Awake())
// consume every sample, the rest sleep until the stream reaches them.
func (b *CountBank) Awake() int { return b.awake }

// Push feeds one sample: the mismatch words of every lag up to the most
// any awake level probes are built once, then each awake level applies
// its prefix of them.
func (b *CountBank) Push(v int64) {
	t := b.t
	if b.awake < len(b.lv) && t >= b.lv[b.awake].wake {
		b.wakeLevels()
	}
	if b.awake > 0 {
		b.apply(t, v, &b.lv[b.src], b.lv[:b.awake])
	}
	b.hist[t&uint64(len(b.hist)-1)] = v
	b.t = t + 1
}

// wakeLevels wakes every sleeping level whose first live sample is the
// next one, replaying the samples so far from the shared ring; a level
// replaying is the source of its own shifted rows.
func (b *CountBank) wakeLevels() {
	t := b.t
	mask := uint64(len(b.hist) - 1)
	for b.awake < len(b.lv) && t >= b.lv[b.awake].wake {
		l := b.lv[b.awake : b.awake+1]
		l[0].ver++
		for s := uint64(0); s < t; s++ {
			b.apply(s, b.hist[s&mask], &l[0], l)
		}
		if b.awake == 0 || l[0].lags >= b.lv[b.src].lags {
			b.src = b.awake
		}
		b.awake++
	}
}

// apply runs sample s, value v, through levels, every one of which has
// consumed samples 0..s-1. A level whose smallest zero lag p the sample
// repeats, with fewer lags than its window, takes its own row of s-p
// (see repeat). The rest share the mismatch words of the sample, built
// for the most lags any of them probes: the row of s of a repeating
// level with at least that many lags is those words; otherwise src,
// the level with the most lags (which then did not repeat), shifts its
// row by a repeating zero lag or by the sample's previous occurrence.
//
// The identity: zero lag p over window N, with x[s] == x[s-p], gives
// x[s-m] == x[s-m-p] for every m <= N, so each lag up to N mismatches
// at s iff it did at s-p. With fewer lags than N, the level's row of
// s-p covers every lag (a zero lag's window is full, so s-p >= N >
// lags), and that row is the sample's.
func (b *CountBank) apply(s uint64, v int64, src *CountLevel, levels []CountLevel) {
	mask := uint64(len(b.hist) - 1)
	need, probe := 0, math.MaxInt
	var top *CountLevel // the repeating level with the most lags
	for i := range levels {
		l := &levels[i]
		p := l.zeroLag(min(l.lags, l.window+1))
		if p != 0 && b.hist[(s-uint64(p))&mask] == v {
			probe = min(probe, p)
			if l.lags < l.window {
				l.repeat(s, p)
				if top == nil || l.lags > top.lags {
					top = l
				}
				continue
			}
		}
		need = max(need, l.lags)
	}
	if need == 0 {
		return
	}
	L := int(min(s, uint64(need)))
	words := b.words[:(L+63)>>6]
	switch {
	case top != nil && top.lags >= need:
		r := top.row - 1
		if r < 0 {
			r += top.window
		}
		words = top.rows[r*top.wpl:][:top.wpl]
	case probe <= min(L, src.window):
		// Zero lag p over a window of N (paper eq. 2) means x[s-m] ==
		// x[s-m-p] for m = 1..N, so with x[s] == x[s-p] every lag m < p
		// mismatches at s iff it did at s-p, and lag p+m iff lag m did:
		// the words are src's row of s-p, whole below p and shifted by
		// p above it. That needs p <= N+1, the row still in src's window
		// and p within the lags the words cover. During a wake replay
		// levels holds only the waking level, none of whose lags has
		// filled its window yet, so no level speaks for another sample.
		src.shifted(words, probe, true)
	default:
		// Every lag mismatches until a match says otherwise.
		for k := range words {
			words[k] = math.MaxUint64
		}
		b.scan(s, v, src, words, L)
	}
	for i := range levels {
		if l := &levels[i]; l.n == s { // a level that repeated has consumed s
			l.apply(s, words)
		}
	}
}

// scan builds the words of sample s, value v, against lags 1..L: it
// scans back to q, the newest earlier occurrence of v, and shifts in
// src's row of that sample. A match past src's window, whose row is
// gone (only banks with more lags than window reach one), clears its
// own bit and the scan goes on.
func (b *CountBank) scan(s uint64, v int64, src *CountLevel, words []uint64, L int) {
	mask := uint64(len(b.hist) - 1)
	for q := 1; q <= L; q++ {
		if b.hist[(s-uint64(q))&mask] != v {
			continue
		}
		if q <= src.window {
			src.shifted(words, q, false)
			return
		}
		words[(q-1)>>6] &^= 1 << ((q - 1) & 63)
	}
}

// zeroLag returns the level's smallest zero lag if it is at most lim,
// else 0.
func (l *CountLevel) zeroLag(lim int) int {
	for k, w := range l.zero {
		if w != 0 {
			if p := k<<6 + bits.TrailingZeros64(w) + 1; p <= lim {
				return p
			}
			return 0
		}
	}
	return 0
}

// repeat applies sample s to a level of fewer lags than its window
// whose smallest zero lag p the sample repeats: the level's row of s is
// its row of s-p (see CountBank.apply). The push takes one of
// three paths:
//
//   - If the row equals the one it replaces, no count moves: the keep
//     test (same) that CountBank.PushKept applies to a run of samples.
//   - If ZeroRun(p) >= lags-p+1, x is p-periodic from s-window-lags to
//     s, every sample the window's comparisons read before and after
//     the push. Each lag's mismatches are then p-periodic over both
//     windows, and a window of more than p comparisons sees every phase,
//     so every lag has a mismatch at every phase or at none: no zero bit
//     and no zeroAt moves. The run also puts s at window+lags or past,
//     so advance records nothing. The level copies the row and marks
//     its planes stale, to be rebuilt before it next counts.
//   - Otherwise it applies the row as the sample's words.
//
// A stale level only keeps or defers: neither moves a zero lag, so p
// stays its smallest and p's run only grows. Its planes are rebuilt in
// O(window*wpl*bits) at the break that ends the run, a sample with
// x[s] != x[s-p] and so a push of the shared words (see
// CountLevel.apply). The break drops lag p and with it every zero lag
// (on a window that long they are all multiples of p, by Fine and
// Wilf), so the level defers again only after a full window and the
// run, at least window+1 pushes later.
func (l *CountLevel) repeat(s uint64, p int) {
	src, dst, k := l.same(p)
	switch {
	case k == len(dst):
	case s-l.zeroAt[p-1] > uint64(l.lags-p):
		copy(dst[k:], src[k:])
		l.stale = true
	default:
		// The row of s-p is masked to the lags, s > lags, and a stale
		// level never gets here, so apply reads it as the sample's words.
		l.apply(s, src)
		return
	}
	l.advance(s)
}

// shifted writes low | row << q into words, where row is the one the
// level wrote q samples before its next and low covers lags 1..q-1. For
// a sample whose newest earlier occurrence is q lags back, low is all
// ones: it matches none of them. When q is a period of the samples
// since row (see CountBank.apply), low is row's own bits. With q equal
// to the window, row is the one the next sample replaces. q is at most
// the lags words cover, and words at most a row.
func (l *CountLevel) shifted(words []uint64, q int, period bool) {
	r := l.row - q
	if r < 0 {
		r += l.window
	}
	row := l.rows[r*l.wpl:][:l.wpl]
	qw, qb := q>>6, uint(q&63)
	clear(words[:qw])
	var prev uint64
	for k, w := range row[:len(words)-qw] {
		words[qw+k] = w<<qb | prev>>(64-qb)
		prev = w
	}
	lw, tail := (q-1)>>6, uint64(1)<<((q-1)&63)-1
	if period {
		copy(words[:lw], row)
		words[lw] |= row[lw] & tail
	} else {
		for k := range words[:lw] {
			words[k] = math.MaxUint64
		}
		words[lw] |= tail
	}
}

// apply replaces the current row's words with the prefix of words the
// level compares at sample s, masked to its lags, and closes the sample,
// first rebuilding stale planes (see repeat).
func (l *CountLevel) apply(s uint64, words []uint64) {
	if l.stale {
		l.thaw()
	}
	lim := int(min(s, uint64(l.lags)))
	row := l.rows[l.row*l.wpl:][:(lim+63)>>6]
	for k, w := range words[:len(row)] {
		if k == len(row)-1 && lim&63 != 0 {
			w &= 1<<(lim&63) - 1
		}
		if old := row[k]; w != old {
			row[k] = w
			l.applyWord(k, old, w, s)
		}
	}
	l.advance(s)
}

// advance closes sample s: it records the zero state of the lag whose
// window fills exactly now (at most one: it could not be recorded
// earlier because Full was false) and moves to the next row.
func (l *CountLevel) advance(s uint64) {
	if s >= uint64(l.window) {
		if j := s - uint64(l.window); j < uint64(l.lags) && l.Ones(int(j)+1) == 0 {
			l.zero[j>>6] |= 1 << (j & 63)
			l.zeroAt[j] = s
			l.ver++
		}
	}
	l.n = s + 1
	l.row++
	if l.row == l.window {
		l.row = 0
	}
}

// applyWord moves word wi of the counts from row word old to nw at
// sample t: the lags set only in nw count one more mismatch, those set
// only in old one fewer, all in one ripple over the planes. Lags that
// reach zero on a full window join the zero bitset.
func (l *CountLevel) applyWord(wi int, old, nw, t uint64) {
	inc, dec := nw&^old, old&^nw
	c := l.planes[wi*l.bits:][:l.bits]
	lost := l.zero[wi] & inc
	l.zero[wi] ^= lost
	l.ver += (lost | -lost) >> 63 // one iff a zero lag took a mismatch
	// Carry for an increment where a plane bit was set, borrow for a
	// decrement where it was clear. A consistent count never leaves the
	// planes; the bound only keeps a corrupt one from running past them.
	g := inc | dec
	for p := 0; g != 0 && p < len(c); p++ {
		c[p] ^= g
		g &^= c[p] ^ dec
	}
	// Lag j is full after this push iff t >= j + window.
	j0 := uint64(wi) << 6
	if dec == 0 || t < j0+uint64(l.window) {
		return
	}
	z := dec
	if r := t - uint64(l.window) - j0 + 1; r < 64 {
		z &= 1<<r - 1
	}
	for p := len(c) - 1; p >= 0 && z != 0; p-- {
		z &^= c[p]
	}
	l.zero[wi] |= z
	for ; z != 0; z &= z - 1 {
		l.zeroAt[j0+uint64(bits.TrailingZeros64(z))] = t
		l.ver++
	}
}

// thaw rebuilds the stale planes from the window's rows.
func (l *CountLevel) thaw() {
	for k := range l.wpl {
		l.sumRows(l.planes[k*l.bits:][:l.bits], k)
	}
	l.stale = false
}

// sumRows writes into c the bit-sliced counts of 64-lag word k, summed
// from the window's rows with one ripple add per row word.
func (l *CountLevel) sumRows(c []uint64, k int) {
	clear(c)
	for r := k; r < len(l.rows); r += l.wpl {
		g := l.rows[r]
		for p := 0; g != 0 && p < len(c); p++ {
			c[p] ^= g
			g &^= c[p]
		}
	}
}

// Window returns the comparison window size N.
func (l *CountLevel) Window() int { return l.window }

// Lags returns the number of probed lags M.
func (l *CountLevel) Lags() int { return l.lags }

// Len returns the number of samples the level has consumed: the bank's
// count once awake, 0 while asleep.
func (l *CountLevel) Len() uint64 { return l.n }

// Full reports whether lag m's comparison window has filled at least once.
func (l *CountLevel) Full(m int) bool {
	return m >= 1 && m <= l.lags && l.n >= uint64(m)+uint64(l.window)
}

// Ones returns the mismatch count currently inside lag m's window,
// gathered from its planes, or counted down its bit column in the rows
// while the planes are stale.
func (l *CountLevel) Ones(m int) int {
	j, n := m-1, 0
	if l.stale {
		for r := j >> 6; r < len(l.rows); r += l.wpl {
			n += int(l.rows[r] >> (j & 63) & 1)
		}
		return n
	}
	for p, w := range l.planes[j>>6*l.bits:][:l.bits] {
		n |= int(w>>(j&63)&1) << p
	}
	return n
}

// Zero reports whether lag m's window is full and mismatch-free, i.e.
// d(m) == 0 in the sense of paper eq. (2).
func (l *CountLevel) Zero(m int) bool {
	if m < 1 || m > l.lags {
		return false
	}
	j := uint(m - 1)
	return l.zero[j>>6]>>(j&63)&1 != 0
}

// ZeroRun returns the number of consecutive samples for which lag m has
// been zero (0 if it is not currently zero).
func (l *CountLevel) ZeroRun(m int) int {
	if !l.Zero(m) {
		return 0
	}
	return int(l.n - l.zeroAt[m-1])
}

// FirstConfirmed returns the smallest lag that has been zero for at least
// `confirm` consecutive samples, or 0 if none. This is the detector's
// candidate query; with confirm == 1 it is the first set bit of the zero
// bitset.
func (l *CountLevel) FirstConfirmed(confirm int) int {
	need := uint64(confirm)
	for wi, w := range l.zero {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			w &= w - 1
			j := wi<<6 + bit
			if l.n-l.zeroAt[j] >= need {
				return j + 1
			}
		}
	}
	return 0
}

// Version returns a number that moves whenever the level's zero lags or
// the samples they became zero at change: a push that moves neither,
// like every repeat that keeps its row or defers its counts, leaves it,
// so a caller that proved something from them at one version may reuse
// it while Version is unchanged.
// It is never 0.
func (l *CountLevel) Version() uint64 { return l.ver }

// Recent returns the sample consumed `back` positions ago (0 = the most
// recent) without allocating, and whether it is still retained: a level
// reaches back window+lags samples.
func (l *CountLevel) Recent(back int) (int64, bool) {
	if back < 0 || uint64(back) >= l.n || back >= l.window+l.lags {
		return 0, false
	}
	mask := uint64(len(l.b.hist) - 1)
	return l.b.hist[(l.n-1-uint64(back))&mask], true
}

// History copies the newest min(Len, window+lags) samples into dst
// (oldest first), growing it as needed, and returns the filled slice.
func (l *CountLevel) History(dst []int64) []int64 {
	n := histKeep(l.n, l.window+l.lags)
	if cap(dst) < n {
		dst = make([]int64, n)
	}
	dst = dst[:n]
	mask := uint64(len(l.b.hist) - 1)
	start := l.n - uint64(n)
	for i := range dst {
		dst[i] = l.b.hist[(start+uint64(i))&mask]
	}
	return dst
}

// reset discards the level's window state.
func (l *CountLevel) reset() {
	clear(l.rows)
	clear(l.planes)
	clear(l.zero)
	clear(l.zeroAt)
	l.row = 0
	l.n = 0
	l.ver++
	l.stale = false
}

// Reset discards all state but keeps the configuration and storage.
func (b *CountBank) Reset() {
	for i := range b.lv {
		b.lv[i].reset()
	}
	b.awake = 0
	b.src = 0
	b.t = 0
	b.kept = keptStreak{}
}

// SumBank is the flat struct-of-arrays replacement for a []*SlidingSum lag
// ladder: for every lag m = 1..lags it maintains the sum of the absolute
// differences |x[t] - x[t-m]| over a sliding window of the last `window`
// comparisons — the paper's eq. (1) numerator. Values live in one
// contiguous lag-major array, sums in another; one push walks both with a
// modulo-free wrapping cursor.
//
// Everything is allocation-free after construction.
type SumBank struct {
	window int
	lags   int

	hist []float64 // power-of-two ring of the last >= window+lags samples
	vals []float64 // lags rows x window columns of retained |x-x'| values
	sums []float64 // per-lag running sum over its window

	t uint64
}

// NewSumBank returns a bank of `lags` sliding |x[t]-x[t-m]| sums of size
// `window`. It panics on non-positive sizes.
func NewSumBank(window, lags int) *SumBank {
	if window <= 0 || lags <= 0 {
		panic(fmt.Sprintf("series: sum bank window=%d lags=%d must be positive", window, lags))
	}
	return &SumBank{
		window: window,
		lags:   lags,
		hist:   make([]float64, nextPow2(window+lags)),
		vals:   make([]float64, lags*window),
		sums:   make([]float64, lags),
	}
}

// Window returns the comparison window size N.
func (b *SumBank) Window() int { return b.window }

// Lags returns the number of probed lags M.
func (b *SumBank) Lags() int { return b.lags }

// Len returns the number of samples pushed so far.
func (b *SumBank) Len() uint64 { return b.t }

// Push feeds one sample, updating every available lag's window and sum in
// one pass over the contiguous bank.
func (b *SumBank) Push(v float64) {
	t := b.t
	h := b.hist
	mask := uint64(len(h) - 1)
	L := b.lags
	if t < uint64(L) {
		L = int(t)
	}
	if L > 0 {
		n := b.window
		base := t - 1
		// Lag m's window has seen t-m pushes, so its write cursor sits at
		// (t-m) mod n; consecutive lags differ by one slot, so the flat
		// offset advances by n-1 per lag with a conditional wrap.
		p := int(base % uint64(n))
		off := p
		for j := 0; j < L; j++ {
			a := math.Abs(v - h[(base-uint64(j))&mask])
			b.sums[j] += a - b.vals[off]
			b.vals[off] = a
			off += n - 1
			p--
			if p < 0 {
				p = n - 1
				off += n
			}
		}
	}
	h[t&mask] = v
	b.t++
}

// Full reports whether lag m's comparison window has filled at least once.
func (b *SumBank) Full(m int) bool {
	return m >= 1 && m <= b.lags && b.t >= uint64(m)+uint64(b.window)
}

// ValidLags returns the number of lags with a full window; full lags are
// always the prefix 1..ValidLags since smaller lags warm up first.
func (b *SumBank) ValidLags() int {
	if b.t <= uint64(b.window) {
		return 0
	}
	v := b.t - uint64(b.window)
	if v > uint64(b.lags) {
		return b.lags
	}
	return int(v)
}

// Sum returns the current sum over lag m's window.
func (b *SumBank) Sum(m int) float64 { return b.sums[m-1] }

// Sums returns the live per-lag sums (index i = lag i+1). The slice is
// owned by the bank and mutated by Push; callers must not retain it across
// pushes or write to it.
func (b *SumBank) Sums() []float64 { return b.sums }

// Recompute recalculates every lag's sum from its retained window values,
// discarding accumulated floating-point drift on very long streams.
func (b *SumBank) Recompute() {
	for j := 0; j < b.lags; j++ {
		var s float64
		row := b.vals[j*b.window : (j+1)*b.window]
		for _, a := range row {
			s += a
		}
		b.sums[j] = s
	}
}

// History copies the newest min(Len, window+lags) samples into dst
// (oldest first), growing it as needed, and returns the filled slice.
func (b *SumBank) History(dst []float64) []float64 {
	n := uint64(b.window + b.lags)
	if b.t < n {
		n = b.t
	}
	if cap(dst) < int(n) {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	mask := uint64(len(b.hist) - 1)
	start := b.t - n
	for i := range dst {
		dst[i] = b.hist[(start+uint64(i))&mask]
	}
	return dst
}

// Reset discards all state but keeps the configuration and storage.
func (b *SumBank) Reset() {
	clear(b.vals)
	clear(b.sums)
	b.t = 0
}
