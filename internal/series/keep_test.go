package series

import (
	"bytes"
	"testing"
)

// TestPushKeptMatchesPush: PushKept pushes exactly the prefix Push would
// keep, leaving the bank byte-identical to Push of those samples with
// the same Version, stale level or not, and refuses a warming or ladder
// bank and a level with as many lags as its window.
func TestPushKeptMatchesPush(t *testing.T) {
	eight := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	repeats := []int64{1, 2, 1, 3, 1, 2, 2} // 64 mod 7 = 1: never keeps
	someKeep := []int64{2, 1, 0, 1, 0}      // stale, yet one phase keeps
	cases := []struct {
		name    string
		bank    func() *CountBank
		pattern []int64
		warm    int  // samples pushed through Push first
		glitch  int  // index into the offered samples taking a new value; -1 none
		want    int  // samples PushKept must keep of the 300 offered
		stale   bool // the level defers when offered the samples
	}{
		{"steady", func() *CountBank { return NewCountBank(64, 63) }, eight, 400, -1, 300, false},
		{"break", func() *CountBank { return NewCountBank(64, 63) }, eight, 400, 123, 123, false},
		{"break-first", func() *CountBank { return NewCountBank(64, 63) }, eight, 400, 0, 0, false},
		{"warming", func() *CountBank { return NewCountBank(64, 63) }, eight, 126, -1, 0, false},
		{"warm", func() *CountBank { return NewCountBank(64, 63) }, eight, 127, -1, 300, false},
		{"stale", func() *CountBank { return NewCountBank(64, 63) }, repeats, 1000, -1, 0, true},
		{"stale-keeps", func() *CountBank { return NewCountBank(64, 63) }, someKeep, 1001, -1, 1, true},
		{"lags-equal-window", func() *CountBank { return NewCountBank(64, 64) }, eight, 400, -1, 0, false},
		{"ladder", func() *CountBank { return NewCountLadder([]int{16, 64}, []int{15, 63}) }, eight, 400, -1, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, ref := tc.bank(), tc.bank()
			xs := make([]int64, tc.warm+300)
			for i := range xs {
				xs[i] = tc.pattern[i%len(tc.pattern)]
			}
			if tc.glitch >= 0 {
				xs[tc.warm+tc.glitch] = 99
			}
			for _, v := range xs[:tc.warm] {
				b.Push(v)
				ref.Push(v)
			}
			if b.stale != tc.stale {
				t.Fatalf("stale=%v before the offer, want %v", b.stale, tc.stale)
			}
			n := b.PushKept(xs[tc.warm:])
			if n != tc.want {
				t.Fatalf("PushKept kept %d samples, want %d", n, tc.want)
			}
			ver := ref.Version()
			for _, v := range xs[tc.warm : tc.warm+n] {
				ref.Push(v)
			}
			if ref.Version() != ver {
				t.Fatalf("Push of the kept samples moved the Version %d -> %d", ver, ref.Version())
			}
			if b.Len() != ref.Len() || b.Version() != ref.Version() {
				t.Fatalf("Len %d Version %d, Push reads %d and %d", b.Len(), b.Version(), ref.Len(), ref.Version())
			}
			for i := range b.lv {
				if got, want := b.Level(i).AppendState(nil), ref.Level(i).AppendState(nil); !bytes.Equal(got, want) {
					t.Fatalf("level %d state differs from Push's", i)
				}
			}
		})
	}
}
