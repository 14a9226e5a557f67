package series

// symbolCap is the most distinct symbols the occurrence rings track. It
// keeps the SPECfp95 loop-address traces (at most 62 distinct
// addresses, hydro2d) on the word-parallel path with room to spare;
// slot ids must fit a uint8.
const symbolCap = 128

// tableSize is the open-addressing symbol table's slot count: a power
// of two at most half full at symbolCap symbols.
const tableSize = 2 * symbolCap

// occurrences is the word-parallel half of a CountBank: for every
// distinct symbol among the newest R samples, a ring of R bits marking
// where it occurs. R covers the bank's largest lag and latest wake, not
// its whole history. Bits are laid out in reverse time order — sample
// x maps to bit (-x) mod R — so the bits of lags 1, 2, 3, … of a sample
// are consecutive, and the equality word of 64 lags is a two-word
// extract from the sample's own symbol ring. It is derived state,
// rebuilt from the history whenever it cannot be maintained
// incrementally: after a load, and after an overflow past symbolCap.
type occurrences struct {
	mask uint64 // R-1: the rings span R samples, a power of two >= 256
	rw   int    // words per symbol ring: R/64

	rings [][]uint64 // per slot: rw words marking where its symbol occurs
	count []int32    // per-slot occurrences among the newest R samples
	free  []uint8    // released slots, reused before new rings are made
	ids   []uint8    // per sample x mod R: slot+1 of its symbol, 0 if none
	n     int        // distinct symbols held

	keys [tableSize]int64 // symbol table: linear probing, backward-shift deletes
	vals [tableSize]uint8 // slot+1, 0 = empty

	off   bool   // the span held more than symbolCap symbols: rings are stale
	retry uint64 // sample count at which an overflowed table is rebuilt
	from  uint64 // oldest sample the history ring holds validly
}

func newOccurrences(r int) *occurrences {
	return &occurrences{
		mask: uint64(r - 1),
		rw:   r / 64,
		free: make([]uint8, 0, symbolCap),
		ids:  make([]uint8, r),
	}
}

// hashSym maps a symbol to its home slot in the table.
func hashSym(v int64) int {
	return int(uint64(v) * 0x9E3779B97F4A7C15 >> 56 & (tableSize - 1))
}

// find returns v's slot+1, or 0 when v is not among the newest R samples.
func (o *occurrences) find(v int64) uint8 {
	for i := hashSym(v); ; i = (i + 1) & (tableSize - 1) {
		if s := o.vals[i]; s == 0 || o.keys[i] == v {
			return s
		}
	}
}

// acquire gives v a slot and returns slot+1, or 0 when the table is
// full. The slot's ring is all zero: a slot is released only once
// every one of its bits has been cleared.
func (o *occurrences) acquire(v int64) uint8 {
	if o.n == symbolCap {
		return 0
	}
	var s int
	if k := len(o.free); k > 0 {
		s = int(o.free[k-1])
		o.free = o.free[:k-1]
	} else {
		s = len(o.rings)
		o.rings = append(o.rings, make([]uint64, o.rw))
		o.count = append(o.count, 0)
	}
	o.n++
	i := hashSym(v)
	for o.vals[i] != 0 {
		i = (i + 1) & (tableSize - 1)
	}
	o.keys[i], o.vals[i] = v, uint8(s+1)
	return uint8(s + 1)
}

// release drops v, whose last occurrence just left the ring, and
// recycles its slot id.
func (o *occurrences) release(v int64, id uint8) {
	i := hashSym(v)
	for o.vals[i] != id {
		i = (i + 1) & (tableSize - 1)
	}
	// Backward-shift deletion: pull later entries of the probe run into
	// the hole unless their home slot lies cyclically in (hole, entry].
	for j := (i + 1) & (tableSize - 1); o.vals[j] != 0; j = (j + 1) & (tableSize - 1) {
		h := hashSym(o.keys[j])
		if (j-h)&(tableSize-1) >= (j-i)&(tableSize-1) {
			o.keys[i], o.vals[i] = o.keys[j], o.vals[j]
			i = j
		}
	}
	o.vals[i] = 0
	o.free = append(o.free, id-1)
	o.n--
}

// push records sample t, v with slot id (0 if v is new to the rings),
// evicting sample t-R, whose value the history ring hist still holds.
// Past symbolCap distinct symbols the rings go stale until a rebuild
// one ring turn later.
func (o *occurrences) push(hist []int64, t uint64, v int64, id uint8) {
	if prev := o.ids[t&o.mask]; prev != 0 {
		q := -t & o.mask
		ps := int(prev - 1)
		o.rings[ps][q>>6] &^= 1 << (q & 63)
		o.count[ps]--
		if o.count[ps] == 0 && prev != id {
			o.release(hist[(t-o.mask-1)&uint64(len(hist)-1)], prev)
		}
	}
	o.add(t, v, id, t)
}

// add marks sample x, v with slot id (0 if v is new to the rings),
// acquiring a slot if needed; past symbolCap symbols it turns the rings
// off until a retry one ring turn after sample t.
func (o *occurrences) add(x uint64, v int64, id uint8, t uint64) {
	if id == 0 {
		if id = o.acquire(v); id == 0 {
			o.off = true
			o.retry = t + o.mask + 1
			return
		}
	}
	q := -x & o.mask
	o.rings[id-1][q>>6] |= 1 << (q & 63)
	o.count[id-1]++
	o.ids[x&o.mask] = id
}

// reset empties the table and rings, keeping every ring made so far
// for reuse.
func (o *occurrences) reset() {
	clear(o.vals[:])
	clear(o.ids)
	clear(o.count)
	o.free = o.free[:0]
	for s, r := range o.rings {
		clear(r)
		o.free = append(o.free, uint8(s))
	}
	o.n = 0
	o.off = false
}

// rebuild derives the table and rings from the history ring's samples
// before sample t. If they hold more than symbolCap distinct symbols,
// the rings stay off and the rebuild is retried one ring turn later.
func (o *occurrences) rebuild(hist []int64, t uint64) {
	from := o.from
	if r := o.mask + 1; t > r && t-r > from {
		from = t - r
	}
	o.reset()
	for x := from; x < t && !o.off; x++ {
		v := hist[x&uint64(len(hist)-1)]
		o.add(x, v, o.find(v), t)
	}
}
