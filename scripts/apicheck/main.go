// Command apicheck is the CI API-surface gate: it fails (exit 1, one
// line per violation) when a required exported symbol of the public dpd
// package disappears — in particular the Table-1 port (DPD, NewDPD, …)
// and the unified surface itself (New, Must, the
// With* options, Detector, Observer). An accidental rename or deletion
// of any of these is an API break for downstream users and must be a
// deliberate, reviewed change: update the required list here in the
// same commit.
//
// Checked: every exported top-level symbol of the non-test .go files in
// the package root directory (the only importable package).
//
// Usage (from the repo root):
//
//	go run ./scripts/apicheck
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// required lists the exported symbols (types, funcs, consts, vars) the
// public package must keep. Methods are covered transitively: removing
// a type removes its method set, and interface methods are part of the
// type's definition.
var required = []string{
	// Unified surface (the tentpole).
	"Detector", "Sample", "Stat", "New", "Must",
	"Option", "WithWindow", "WithMaxLag", "WithConfirm", "WithGrace",
	"WithMagnitude", "WithLadder", "WithAdaptive", "WithObserver",
	"EventSample", "MagnitudeSample", "DefaultDPDWindow",
	"EventEngine", "MagnitudeEngine", "MultiScaleEngine", "AdaptiveEngine",

	// Subscription/event API.
	"Observer", "Event", "EventKind", "ObserverFuncs",
	"EventLock", "EventPeriodChange", "EventSegmentStart", "EventUnlock",

	// State portability (checkpoint/restore codec).
	"Checkpoint", "AppendCheckpoint", "Restore", "RestorePool",

	// Table-1 paper port and deprecated constructor shims.
	"DPD", "NewDPD", "NewDPDWithWindow",
	"NewEventPredictor", "NewMagnitudePredictor",
	"NewPeriodTracker", "NewSegmenter", "DefaultAdaptivePolicy",

	// Toolkit aliases.
	"Config", "Result", "Curve", "EventDetector", "MagnitudeDetector",
	"MultiScaleDetector", "MultiResult", "AdaptiveDetector", "AdaptivePolicy",
	"PeriodTracker", "PeriodStat", "EventPredictor", "MagnitudePredictor",
	"Segmenter", "Segment", "DefaultLadder",

	// Multi-stream pool.
	"Pool", "NewPool", "PoolConfig", "KeyedSample", "StreamStat",
	"AdaptiveConfig", "AdaptiveStats", "HotStreamInfo",

	// Observability: the typed cluster section of /metrics.
	"ClusterNodeMetrics",
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	exported, err := exportedSymbols(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apicheck:", err)
		os.Exit(2)
	}

	var missing []string
	for _, name := range required {
		if !exported[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		for _, name := range missing {
			fmt.Fprintf(os.Stderr, "package dpd: required exported symbol %s has disappeared\n", name)
		}
		fmt.Fprintf(os.Stderr, "apicheck: %d required symbols missing (deprecated shims and the unified surface must stay; if this is deliberate, update scripts/apicheck)\n", len(missing))
		os.Exit(1)
	}
}

// exportedSymbols collects the exported top-level names of the package
// in dir (non-test files only).
func exportedSymbols(dir string) (map[string]bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					out[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							out[s.Name.Name] = true
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								out[n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}
