package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"dpd/internal/apps"
	"dpd/internal/series"
)

const goldenPath = "testdata/checkpoint_golden.txt"

// goldenEngines are the engines whose checkpoints the golden file pins:
// the DefaultLadder engine of the Table 2 replay and the window-100
// event engine of a serving pool.
var goldenEngines = []struct {
	name  string
	build func() Detector
}{
	{"ladder", func() Detector { return NewMultiScaleEngine(MustMultiScaleDetector(nil, Config{})) }},
	{"event100", func() Detector { return NewEventEngine(MustEventDetector(Config{Window: 100})) }},
}

// goldenPoints returns the sample counts at which a trace of n samples
// is checkpointed: before, at and after every DefaultLadder level wakes,
// plus seeded points across the whole trace.
func goldenPoints(n int, seed uint64) []int {
	set := map[int]bool{0: true, 1: true, n: true}
	for _, w := range DefaultLadder {
		for _, p := range []int{w - 1, w, w + 1, w + 2, 2 * w} {
			set[p] = true
		}
	}
	rng := series.NewRNG(seed)
	for i := 0; i < 6; i++ {
		set[rng.Intn(n)] = true
	}
	var out []int
	for p := range set {
		if p <= n {
			out = append(out, p)
		}
	}
	sort.Ints(out)
	return out
}

func hashBlob(blob []byte) string {
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:12])
}

// TestCheckpointGolden pins the checkpoint encoding of the ladder and
// window-100 event engines on the five SPECfp95 traces: the hashes in
// testdata/checkpoint_golden.txt are what every older build wrote, so a
// change here breaks restoring existing checkpoints. The file is never
// rewritten from the encoder under test: an encoding change bumps
// StateVersion instead. The test then restores every checkpoint, feeds
// the restored engine up to the next checkpoint, and requires its
// results and its checkpoint there to be byte-identical to those of the
// engine that never stopped.
func TestCheckpointGolden(t *testing.T) {
	var lines []string
	for ai, app := range apps.SPECfp95() {
		vals := app.Trace().Values
		points := goldenPoints(len(vals), uint64(ai)+1)
		for _, eg := range goldenEngines {
			live := eg.build()
			results := make([]Result, len(vals))
			blobs := make([][]byte, len(points))
			fed := 0
			for k, p := range points {
				for ; fed < p; fed++ {
					results[fed] = live.Feed(Sample{Value: vals[fed]})
				}
				blob, err := AppendCheckpoint(live, nil)
				if err != nil {
					t.Fatal(err)
				}
				blobs[k] = blob
				lines = append(lines, fmt.Sprintf("%s %s %d %s", app.Name, eg.name, p, hashBlob(blob)))
			}
			for k := 0; k+1 < len(points); k++ {
				restored, err := RestoreCheckpoint(blobs[k])
				if err != nil {
					t.Fatalf("%s/%s at %d: restore: %v", app.Name, eg.name, points[k], err)
				}
				for i := points[k]; i < points[k+1]; i++ {
					if got := restored.Feed(Sample{Value: vals[i]}); got != results[i] {
						t.Fatalf("%s/%s restored at %d: sample %d result %+v, uninterrupted %+v",
							app.Name, eg.name, points[k], i, got, results[i])
					}
				}
				blob, err := AppendCheckpoint(restored, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(blob, blobs[k+1]) {
					t.Fatalf("%s/%s restored at %d: checkpoint at %d differs from the uninterrupted engine's",
						app.Name, eg.name, points[k], points[k+1])
				}
			}
		}
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("golden file has %d checkpoints, test produced %d", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("checkpoint differs from golden:\n got  %s\n want %s", lines[i], want[i])
		}
	}
}
