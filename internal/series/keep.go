package series

// same returns the level's row of the sample p before its next, the
// row the next sample replaces, and how many leading words the two
// share. A sample repeating the level's smallest zero lag p, with fewer
// lags than its window, keeps its row iff they share every word: its
// row is the row of s-p, so no count, zero bit or zeroAt moves (see
// CountLevel.repeat).
func (l *CountLevel) same(p int) (src, dst []uint64, k int) {
	r := l.row - p
	if r < 0 {
		r += l.window
	}
	src = l.rows[r*l.wpl:][:l.wpl]
	dst = l.rows[l.row*l.wpl:][:l.wpl]
	for k < len(dst) && src[k] == dst[k] {
		k++
	}
	return src, dst, k
}

// PushKept pushes the longest prefix of xs whose every sample keeps the
// level's row, the first case of CountLevel.repeat, and returns its
// length: each sample repeats the one p back, p the smallest zero lag,
// and the row of s-p equals the row s replaces. It applies only to a
// one-level bank that is awake, has fewer lags than its window and has
// pushed at least window+lags samples, so advance would record nothing;
// otherwise, and on a ladder, it returns 0. A stale level qualifies: a
// kept push reads and writes no count plane. The bank ends exactly as
// Push of each kept sample would leave it, with the same Version.
//
// Once window kept pushes have run back to back, a sample that repeats
// the one p back is kept without reading a row. Each of those pushes
// found ring slot s mod window equal to slot (s-p) mod window and wrote
// neither, so every slot equals the slot p behind it, which is the keep
// test of every later sample. The streak is the pushes of that run: it
// continues only where the last call ended (kept.end equals the sample
// count), so any other push breaks it, and a load or Reset clears it.
// No p is kept with it: the zero bits that pick p move only on a Push,
// a load or a Reset, never between two calls that meet at kept.end.
func (b *CountBank) PushKept(xs []int64) int {
	l := b.CountLevel
	if len(b.lv) != 1 || b.awake != 1 || l.lags >= l.window || b.t < uint64(l.window+l.lags) {
		return 0
	}
	p := l.zeroLag(l.lags)
	if p == 0 {
		return 0
	}
	streak := 0
	if b.kept.end == b.t {
		streak = b.kept.n
	}
	mask := uint64(len(b.hist) - 1)
	t := b.t
	for _, v := range xs {
		if b.hist[(t-uint64(p))&mask] != v {
			break
		}
		if streak < l.window {
			if _, dst, k := l.same(p); k < len(dst) {
				break
			}
			streak++
		}
		b.hist[t&mask] = v
		t++
		if l.row++; l.row == l.window {
			l.row = 0
		}
	}
	n := int(t - b.t)
	b.t, l.n = t, t
	b.kept = keptStreak{t, streak}
	return n
}
