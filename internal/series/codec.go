package series

import (
	"fmt"

	"dpd/internal/wire"
)

// State codecs: every windowed structure can append its exact run-time
// state — wrap cursors, packed bitsets, accumulated sums, the sample
// clock — to a byte buffer and load it back, so a detector built on
// these structures can be checkpointed and restored to byte-identical
// subsequent behavior. The encoding is the wire idiom: uvarint scalars,
// fixed-width little-endian bulk arrays.
//
// AppendState never fails and performs no allocation when the buffer
// capacity suffices. LoadState returns the number of bytes consumed; it
// validates geometry against the receiver (the caller chooses the
// configuration; the codec only restores state), never panics, and
// never reads past the declared fields, so it is safe on hostile input.

// AppendState appends the level's state to buf and returns the extended
// buffer. Only the newest min(Len, window+lags) history samples are
// encoded: older entries are unreachable through every accessor. The
// per-lag counts of a level whose planes are stale are summed from its
// rows, so the bytes do not depend on whether a push deferred them. A
// one-level CountBank's AppendState is its level's.
func (l *CountLevel) AppendState(buf []byte) []byte {
	buf = wire.AppendUint(buf, l.window)
	buf = wire.AppendUint(buf, l.lags)
	buf = wire.AppendUvarint(buf, l.n)
	buf = wire.AppendUint(buf, l.row)
	n := histKeep(l.n, l.window+l.lags)
	mask := uint64(len(l.b.hist) - 1)
	start := l.n - uint64(n)
	for i := 0; i < n; i++ {
		buf = wire.AppendI64(buf, l.b.hist[(start+uint64(i))&mask])
	}
	buf = wire.AppendU64s(buf, l.rows)
	// The counts go out per lag, transposed out of the planes eight lags
	// at a time: the inverse of LoadState's transpose. A stale level's
	// planes are summed into sum a word at a time (a count has at most
	// 21 bits: a window is at most MaxDim).
	var sum [21]uint64
	for k := range l.wpl {
		c := l.planes[k*l.bits:][:l.bits]
		if l.stale {
			c = sum[:l.bits]
			l.sumRows(c, k)
		}
		for j := k << 6; j < min(l.lags, k<<6+64); j += 8 {
			var x [3]uint64
			sh := uint(j & 63)
			for p, w := range c {
				x[p>>3] |= w >> sh & 0xFF << (8 * (p & 7))
			}
			x[0], x[1], x[2] = transpose8(x[0]), transpose8(x[1]), transpose8(x[2])
			for i := range uint(min(8, l.lags-j)) {
				buf = wire.AppendUvarint(buf, x[0]>>(8*i)&0xFF|x[1]>>(8*i)&0xFF<<8|x[2]>>(8*i)&0xFF<<16)
			}
		}
	}
	buf = wire.AppendU64s(buf, l.zero)
	buf = wire.AppendU64s(buf, l.zeroAt)
	return buf
}

// LoadState restores a one-level bank from data, returning the bytes
// consumed. The encoded geometry must match the receiver's window and
// lags.
func (b *CountBank) LoadState(data []byte) (int, error) {
	b.StartLoad()
	n, err := b.lv[0].LoadState(data)
	if err != nil {
		return 0, err
	}
	if err := b.FinishLoad(b.lv[0].n); err != nil {
		return 0, err
	}
	return n, nil
}

// StartLoad begins restoring the bank level by level: the history ring
// is rebuilt from what each level's LoadState and LoadPending carry, and
// FinishLoad validates and completes it. It ends PushKept's streak: the
// loaded rows need not repeat as the old ones did.
func (b *CountBank) StartLoad() {
	clear(b.hist)
	b.loadEnd, b.loadHave = 0, 0
	b.kept = keptStreak{}
}

// LoadState restores the level from data, returning the bytes consumed,
// and merges its history into the bank's shared ring; it must run
// between the bank's StartLoad and FinishLoad. The encoded geometry must
// match the receiver's window and lags.
func (l *CountLevel) LoadState(data []byte) (int, error) {
	l.ver++ // nothing proved from the zero lags before the load holds after
	d := wire.NewDec(data)
	w := d.Uint(MaxDim)
	lags := d.Uint(MaxDim)
	if d.Err() == nil && (w != l.window || lags != l.lags) {
		return 0, fmt.Errorf("series: count bank %dx%d cannot load checkpoint of geometry %dx%d", l.window, l.lags, w, lags)
	}
	t := d.Uvarint()
	row := d.Uint(l.window - 1)
	n := histKeep(t, l.window+l.lags)
	if !d.Need(8 * (n + len(l.rows) + len(l.zero) + len(l.zeroAt))) {
		return 0, fmt.Errorf("series: count bank checkpoint: %w", d.Err())
	}
	if err := l.b.mergeHistory(t, n, d); err != nil {
		return 0, err
	}
	d.U64s(l.rows)
	l.stale = false
	// The per-lag counts go into the planes eight lags at a time: lane b
	// of x collects count bits 8b..8b+7, and one transpose turns a lane
	// into a byte of eight planes. A window is at most MaxDim, so its
	// counts have at most 21 bits.
	clear(l.planes)
	for j := 0; j < l.lags; j += 8 {
		var x [3]uint64
		for i := range uint(min(8, l.lags-j)) {
			v := uint64(d.Uint(l.window))
			x[0] |= v & 0xFF << (8 * i)
			x[1] |= v >> 8 & 0xFF << (8 * i)
			x[2] |= v >> 16 & 0xFF << (8 * i)
		}
		x[0], x[1], x[2] = transpose8(x[0]), transpose8(x[1]), transpose8(x[2])
		c, sh := l.planes[j>>6*l.bits:][:l.bits], uint(j&63)
		for p := range c {
			c[p] |= x[p>>3] >> (8 * (p & 7)) & 0xFF << sh
		}
	}
	d.U64s(l.zero)
	d.U64s(l.zeroAt)
	if err := d.Err(); err != nil {
		return 0, fmt.Errorf("series: count bank checkpoint: %w", err)
	}
	// Mask the padding bits of the last word of every packed row and of
	// the zero bitset: legitimate encodes never set them, and a set bit
	// beyond `lags` would index out of range on the next push.
	if pad := l.lags & 63; pad != 0 {
		m := uint64(1)<<uint(pad) - 1
		for r := 0; r < l.window; r++ {
			l.rows[(r+1)*l.wpl-1] &= m
		}
		l.zero[l.wpl-1] &= m
	}
	l.n = t
	l.row = row
	return d.Offset(), nil
}

// AppendPending appends the samples the bank's sleeping levels replay
// when they wake: every sample so far while any level sleeps, none once
// all are awake. A sleeping level's wake sample is within the ring, so
// they are all retained.
func (b *CountBank) AppendPending(buf []byte) []byte {
	n := 0
	if b.awake < len(b.lv) {
		n = int(b.t)
	}
	buf = wire.AppendUint(buf, n)
	for i := 0; i < n; i++ {
		buf = wire.AppendI64(buf, b.hist[i])
	}
	return buf
}

// LoadPending restores what AppendPending wrote, merging it into the
// shared ring, and returns the bytes consumed; it must run between
// StartLoad and FinishLoad.
func (b *CountBank) LoadPending(data []byte) (int, error) {
	d := wire.NewDec(data)
	n := d.Uint(int(b.lv[len(b.lv)-1].wake))
	if !d.Need(8 * n) {
		return 0, fmt.Errorf("series: count bank pending samples: %w", d.Err())
	}
	if err := b.mergeHistory(uint64(n), n, d); err != nil {
		return 0, err
	}
	return d.Offset(), nil
}

// mergeHistory reads the n samples ending at sample count end from d
// into the shared ring. Samples already merged by another level must
// agree: every level of one bank saw the same stream.
func (b *CountBank) mergeHistory(end uint64, n int, d *wire.Dec) error {
	if n == 0 {
		return nil
	}
	if b.loadHave > 0 && end != b.loadEnd {
		return fmt.Errorf("series: count ladder histories end at samples %d and %d", b.loadEnd, end)
	}
	b.loadEnd = end
	// The older samples are new to the ring and decode in place, at most
	// two contiguous runs; the newest loadHave were merged already.
	mask := uint64(len(b.hist) - 1)
	x, merged := end-uint64(n), end-uint64(min(n, b.loadHave))
	for x < merged {
		pos := x & mask
		run := min(uint64(len(b.hist))-pos, merged-x)
		d.I64s(b.hist[pos : pos+run])
		x += run
	}
	for ; x < end; x++ {
		if d.I64() != b.hist[x&mask] {
			return fmt.Errorf("series: count ladder levels disagree on sample %d", x)
		}
	}
	b.loadHave = max(b.loadHave, n)
	return nil
}

// FinishLoad completes a load at sample count t: every level must have
// consumed t samples if it is due awake and none if it still sleeps,
// and the merged histories must cover what the levels will read.
func (b *CountBank) FinishLoad(t uint64) error {
	if b.loadHave > 0 && b.loadEnd != t {
		return fmt.Errorf("series: count bank history ends at sample %d, state at %d", b.loadEnd, t)
	}
	awake, src, need := 0, 0, 0
	for i := range b.lv {
		l := &b.lv[i]
		if l.wake < t {
			if l.n != t {
				return fmt.Errorf("series: count bank level %d has consumed %d of %d samples", i, l.n, t)
			}
			if awake == 0 || l.lags >= b.lv[src].lags {
				src = i
			}
			awake++
			need = max(need, histKeep(t, l.window+l.lags))
		} else {
			if l.n != 0 {
				return fmt.Errorf("series: sleeping count bank level %d has consumed %d samples", i, l.n)
			}
			need = int(t) // replayed when it wakes
		}
	}
	if b.loadHave < need {
		return fmt.Errorf("series: count bank checkpoint keeps %d history samples, its levels read %d", b.loadHave, need)
	}
	b.awake, b.src, b.t = awake, src, t
	return nil
}

// AppendState appends the bank's state to buf and returns the extended
// buffer; see CountBank.AppendState for the retained-history contract.
func (b *SumBank) AppendState(buf []byte) []byte {
	buf = wire.AppendUint(buf, b.window)
	buf = wire.AppendUint(buf, b.lags)
	buf = wire.AppendUvarint(buf, b.t)
	n := histKeep(b.t, b.window+b.lags)
	mask := uint64(len(b.hist) - 1)
	start := b.t - uint64(n)
	for i := 0; i < n; i++ {
		buf = wire.AppendF64(buf, b.hist[(start+uint64(i))&mask])
	}
	buf = wire.AppendF64s(buf, b.vals)
	buf = wire.AppendF64s(buf, b.sums)
	return buf
}

// LoadState restores the bank from data, returning the bytes consumed.
// Sums are restored bit-exact, so subsequent incremental updates follow
// the same floating-point trajectory as the checkpointed bank.
func (b *SumBank) LoadState(data []byte) (int, error) {
	d := wire.NewDec(data)
	w := d.Uint(MaxDim)
	l := d.Uint(MaxDim)
	if d.Err() == nil && (w != b.window || l != b.lags) {
		return 0, fmt.Errorf("series: sum bank %dx%d cannot load checkpoint of geometry %dx%d", b.window, b.lags, w, l)
	}
	t := d.Uvarint()
	n := histKeep(t, b.window+b.lags)
	if !d.Need(8 * (n + len(b.vals) + len(b.sums))) {
		return 0, fmt.Errorf("series: sum bank checkpoint: %w", d.Err())
	}
	clear(b.hist)
	mask := uint64(len(b.hist) - 1)
	start := t - uint64(n)
	for i := 0; i < n; i++ {
		b.hist[(start+uint64(i))&mask] = d.F64()
	}
	d.F64s(b.vals)
	d.F64s(b.sums)
	if err := d.Err(); err != nil {
		return 0, fmt.Errorf("series: sum bank checkpoint: %w", err)
	}
	b.t = t
	return d.Offset(), nil
}

// AppendState appends the ring's state: capacity, cursor, clock, and
// the live values in logical (oldest-first) order.
func (r *Ring) AppendState(buf []byte) []byte {
	buf = wire.AppendUint(buf, len(r.buf))
	buf = wire.AppendUint(buf, r.head)
	buf = wire.AppendUint(buf, r.count)
	buf = wire.AppendUvarint(buf, r.total)
	for i := 0; i < r.count; i++ {
		buf = wire.AppendF64(buf, r.At(i))
	}
	return buf
}

// LoadState restores the ring from data, returning the bytes consumed.
// The encoded capacity must match the receiver's.
func (r *Ring) LoadState(data []byte) (int, error) {
	d := wire.NewDec(data)
	c := d.Uint(MaxDim)
	if d.Err() == nil && c != len(r.buf) {
		return 0, fmt.Errorf("series: ring of capacity %d cannot load checkpoint of capacity %d", len(r.buf), c)
	}
	head := d.Uint(len(r.buf) - 1)
	count := d.Uint(len(r.buf))
	total := d.Uvarint()
	if !d.Need(8 * count) {
		return 0, fmt.Errorf("series: ring checkpoint: %w", d.Err())
	}
	clear(r.buf)
	for i := 0; i < count; i++ {
		idx := head + i
		if idx >= len(r.buf) {
			idx -= len(r.buf)
		}
		r.buf[idx] = d.F64()
	}
	if err := d.Err(); err != nil {
		return 0, fmt.Errorf("series: ring checkpoint: %w", err)
	}
	r.head = head
	r.count = count
	r.total = total
	return d.Offset(), nil
}

// AppendState appends the ring's state; see Ring.AppendState.
func (r *IntRing) AppendState(buf []byte) []byte {
	buf = wire.AppendUint(buf, len(r.buf))
	buf = wire.AppendUint(buf, r.head)
	buf = wire.AppendUint(buf, r.count)
	buf = wire.AppendUvarint(buf, r.total)
	for i := 0; i < r.count; i++ {
		buf = wire.AppendI64(buf, r.At(i))
	}
	return buf
}

// LoadState restores the ring from data; see Ring.LoadState.
func (r *IntRing) LoadState(data []byte) (int, error) {
	d := wire.NewDec(data)
	c := d.Uint(MaxDim)
	if d.Err() == nil && c != len(r.buf) {
		return 0, fmt.Errorf("series: int ring of capacity %d cannot load checkpoint of capacity %d", len(r.buf), c)
	}
	head := d.Uint(len(r.buf) - 1)
	count := d.Uint(len(r.buf))
	total := d.Uvarint()
	if !d.Need(8 * count) {
		return 0, fmt.Errorf("series: int ring checkpoint: %w", d.Err())
	}
	clear(r.buf)
	for i := 0; i < count; i++ {
		idx := head + i
		if idx >= len(r.buf) {
			idx -= len(r.buf)
		}
		r.buf[idx] = d.I64()
	}
	if err := d.Err(); err != nil {
		return 0, fmt.Errorf("series: int ring checkpoint: %w", err)
	}
	r.head = head
	r.count = count
	r.total = total
	return d.Offset(), nil
}

// AppendState appends the counter's state: window, cursor, and the
// valid mismatch bits packed 8 per byte in logical order.
func (s *SlidingCount) AppendState(buf []byte) []byte {
	buf = wire.AppendUint(buf, len(s.bits))
	buf = wire.AppendUint(buf, s.head)
	buf = wire.AppendUint(buf, s.count)
	var acc uint8
	for i := 0; i < s.count; i++ {
		idx := s.head + i
		if idx >= len(s.bits) {
			idx -= len(s.bits)
		}
		acc |= s.bits[idx] << uint(i&7)
		if i&7 == 7 {
			buf = wire.AppendU8(buf, acc)
			acc = 0
		}
	}
	if s.count&7 != 0 {
		buf = wire.AppendU8(buf, acc)
	}
	return buf
}

// LoadState restores the counter from data, returning the bytes
// consumed. The mismatch total is recomputed from the restored bits, so
// the loaded state is internally consistent by construction.
func (s *SlidingCount) LoadState(data []byte) (int, error) {
	d := wire.NewDec(data)
	w := d.Uint(MaxDim)
	if d.Err() == nil && w != len(s.bits) {
		return 0, fmt.Errorf("series: sliding count of window %d cannot load checkpoint of window %d", len(s.bits), w)
	}
	head := d.Uint(len(s.bits) - 1)
	count := d.Uint(len(s.bits))
	packed := d.Bytes((count + 7) / 8)
	if err := d.Err(); err != nil {
		return 0, fmt.Errorf("series: sliding count checkpoint: %w", err)
	}
	clear(s.bits)
	ones := 0
	for i := 0; i < count; i++ {
		b := packed[i>>3] >> uint(i&7) & 1
		idx := head + i
		if idx >= len(s.bits) {
			idx -= len(s.bits)
		}
		s.bits[idx] = b
		ones += int(b)
	}
	s.head = head
	s.count = count
	s.ones = ones
	return d.Offset(), nil
}

// AppendState appends the average's state: the observation count and
// the exact bits of the current value (alpha is configuration).
func (e *EWMA) AppendState(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, e.n)
	return wire.AppendF64(buf, e.value)
}

// LoadState restores the average from data, returning the bytes
// consumed.
func (e *EWMA) LoadState(data []byte) (int, error) {
	d := wire.NewDec(data)
	n := d.Uvarint()
	v := d.F64()
	if err := d.Err(); err != nil {
		return 0, fmt.Errorf("series: ewma checkpoint: %w", err)
	}
	e.n = n
	e.value = v
	return d.Offset(), nil
}

// transpose8 transposes the 8×8 bit matrix whose row i is byte i of x:
// bit j of byte i moves to bit i of byte j (Hacker's Delight §7-3).
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00AA00AA00AA00AA
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000CCCC0000CCCC
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000F0F0F0F0
	return x ^ t ^ t<<28
}

// MaxDim bounds every decoded geometry field (window sizes, lag counts,
// ring capacities) so a corrupted checkpoint cannot demand an absurd
// allocation or loop bound; it comfortably exceeds the largest legal
// detector window.
const MaxDim = 1 << 20

// histKeep returns how many of the newest history samples are encoded:
// the retained reach of the ring, capped by the sample clock.
func histKeep(t uint64, reach int) int {
	if t < uint64(reach) {
		return int(t)
	}
	return reach
}
