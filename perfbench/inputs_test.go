package main

import (
	"testing"

	"dpd/internal/loadgen"
)

// small is a serving workload shaped like the real ones but small
// enough to build its checkpoint in a test.
func small(sp serveSpec) *serveSpec {
	sp.keys, sp.restored = 2000, 1000
	if sp.theta > 0 {
		sp.keys, sp.genKeys = 1000, 1000
	}
	return &sp
}

// TestInputFingerprint: the same seed reproduces a run's inputs, and a
// different seed changes them, for every workload.
func TestInputFingerprint(t *testing.T) {
	for _, sp := range []*serveSpec{small(uniformSpec), small(skewedSpec)} {
		fp := func(seed uint64) string {
			ckpt, err := buildCheckpoint(sp, seed)
			if err != nil {
				t.Fatal(err)
			}
			fp, err := inputFingerprint(sp, seed, ckpt)
			if err != nil {
				t.Fatal(err)
			}
			return fp
		}
		a, b, c := fp(7), fp(7), fp(8)
		if a != b {
			t.Errorf("%s: seed 7 gave fingerprints %s and %s", sp.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 share fingerprint %s", sp.name, a)
		}
	}
	as, err := buildNested()
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := nestedFingerprint(as, 7), nestedFingerprint(as, 7), nestedFingerprint(as, 8)
	if a != b || a == c {
		t.Errorf("paper-nested: fingerprints %s, %s (seed 7 twice), %s (seed 8)", a, b, c)
	}
}

// TestValuesMatchSampleAt: the in-loop generator produces exactly the
// loadgen.SampleAt sequences the differential feeds its references.
func TestValuesMatchSampleAt(t *testing.T) {
	sp := &uniformSpec
	dst := make([]int64, 300)
	for _, key := range []uint64{0, 1, 17, 31999} {
		sp.values(3, key, 40, dst)
		for j, v := range dst {
			if want := loadgen.SampleAt(sampleCfg(3, key), key, 40+uint64(j)).Value; v != want {
				t.Fatalf("key %d sample %d: %d, SampleAt %d", key, 40+j, v, want)
			}
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{2, 1}, 0.75, 2.25},
	} {
		if q1, q3 := quartiles(c.in); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}
