// Fuzz target for the checkpoint decoder: dpd.Restore consumes bytes
// that may come from disk or the network, so truncated, corrupted and
// version-skewed input must produce a descriptive error — never a
// panic, an over-read, or an allocation orders of magnitude beyond the
// input. Run with:
//
//	go test -fuzz FuzzRestore -fuzztime 30s .
//
// The seed corpus covers a valid checkpoint of every engine plus the
// interesting malformations (truncations at layer boundaries, version
// skew on both the container and the engine codec, bit flips in the
// packed bitset region), so even the non-fuzzing `go test` run
// exercises each decode path.
package dpd_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dpd"
)

// fuzzSeedBlobs builds one warmed, locked checkpoint per engine.
func fuzzSeedBlobs(tb testing.TB) [][]byte {
	tb.Helper()
	var blobs [][]byte
	for _, tc := range checkpointCases() {
		det := dpd.Must(tc.opts...)
		for i := 0; i < 400; i++ {
			det.Feed(tc.sample(i))
		}
		blob, err := dpd.Checkpoint(det)
		if err != nil {
			tb.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	return blobs
}

func FuzzRestore(f *testing.F) {
	for _, blob := range fuzzSeedBlobs(f) {
		f.Add(blob)
		f.Add(blob[:len(blob)/2]) // mid-state truncation
		f.Add(blob[:5])           // header only
		skew := bytes.Clone(blob)
		skew[4] = 2 // container version
		f.Add(skew)
		skew = bytes.Clone(blob)
		skew[6] = 99 // engine format version
		f.Add(skew)
		flip := bytes.Clone(blob)
		for i := 20; i < len(flip); i += 37 {
			flip[i] ^= 0x81
		}
		f.Add(flip)
	}
	f.Add([]byte{})
	f.Add([]byte("DPDS\x01"))
	f.Add(anchorPastClock(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		det, err := dpd.Restore(data)
		if err != nil {
			return // rejected input is the expected outcome
		}
		// Accepted input must yield a fully usable detector: feeding,
		// snapshotting and re-checkpointing must not panic.
		for i := 0; i < 64; i++ {
			det.Feed(dpd.Sample{Value: int64(i % 5), Magnitude: float64(i % 5)})
		}
		_ = det.Snapshot()
		if _, err := dpd.Checkpoint(det); err != nil {
			t.Fatalf("restored detector failed to re-checkpoint: %v", err)
		}
	})
}

// anchorPastClock returns a locked event checkpoint whose lock is
// anchored one sample after its clock, a state no encoder writes, and
// checks that Restore refuses it. The event engine's state ends with
// nine uvarints: the detector's locked, period, anchor, grace left and
// clock, then the tracker's locked, period, starts and last start. A
// uvarint ends at its first byte below 0x80, so they split from the end.
func anchorPastClock(tb testing.TB) []byte {
	tb.Helper()
	blob := fuzzSeedBlobs(tb)[0]
	ends := make([]int, 0, 9) // the end offsets of the last nine uvarints, newest first
	for i := len(blob) - 1; i >= 0 && len(ends) < 9; i-- {
		if blob[i] < 0x80 {
			ends = append(ends, i+1)
		}
	}
	if len(ends) < 9 {
		tb.Fatal("event checkpoint too short")
	}
	anchorStart, anchorEnd := ends[7], ends[6]
	clock, n := binary.Uvarint(blob[ends[5]:ends[4]])
	if n <= 0 || blob[ends[8]-1] != 1 {
		tb.Fatal("event checkpoint tail does not parse as a locked state")
	}
	forged := append(binary.AppendUvarint(bytes.Clone(blob[:anchorStart]), clock+1), blob[anchorEnd:]...)
	if _, err := dpd.Restore(forged); err == nil {
		tb.Fatalf("lock anchored at sample %d, past its clock %d, restored", clock+1, clock)
	}
	return forged
}

// FuzzRestoreRoundTrip drives the encoder and decoder against each
// other: interpret the fuzz input as a sample stream, checkpoint after
// feeding it, and require the restored detector to continue
// byte-identically. This hunts state the codec forgets to carry, not
// just decode crashes.
func FuzzRestoreRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3})
	f.Add([]byte("aaaaabaaaaabaaaaab"))
	f.Fuzz(func(t *testing.T, stream []byte) {
		if len(stream) > 4096 {
			stream = stream[:4096]
		}
		det := dpd.Must(dpd.WithWindow(16), dpd.WithGrace(1))
		for _, v := range stream {
			det.Feed(dpd.EventSample(int64(v)))
		}
		blob, err := dpd.Checkpoint(det)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := dpd.Restore(blob)
		if err != nil {
			t.Fatalf("own checkpoint rejected: %v", err)
		}
		for i := 0; i < 64; i++ {
			v := dpd.EventSample(int64(i % 3))
			if got, want := restored.Feed(v), det.Feed(v); got != want {
				t.Fatalf("sample %d after restore: %+v != %+v", i, got, want)
			}
		}
	})
}
