package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestExpandExperiments(t *testing.T) {
	all := expandExperiments("all")
	if len(all) != 17 {
		t.Errorf("all expands to %d experiments", len(all))
	}
	got := expandExperiments(" fig5, table2 ,,fig10v ")
	want := []string{"fig5", "table2", "fig10v"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if out := expandExperiments(""); len(out) != 0 {
		t.Errorf("empty spec expands to %v", out)
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	// The registry is exactly the paper's ids plus the six companions:
	// a serving or performance experiment belongs in bench/, not here.
	want := append(expandExperiments("all"),
		"fig10c", "fig12c", "fig10v", "fig12v", "ablation", "convergence")
	sort.Strings(want)
	if got := newRunner(config{}, io.Discard).ids(); !reflect.DeepEqual(got, want) {
		t.Errorf("registered experiments\n got %v\nwant %v", got, want)
	}
}

// TestDocsNameOnlyWhatExists scans the docs and CI for `qbench ... -exp
// <ids>` invocations and fails on an experiment id that is not
// registered or a flag that is not declared, and on any mention of the
// deleted BENCH_<name>.json artifacts (CHANGES.md and ROADMAP.md, the
// history, are not scanned).
func TestDocsNameOnlyWhatExists(t *testing.T) {
	if flag.Lookup("exp") == nil { // once per process: -count=2 reruns the test
		registerFlags(&config{})
	}
	registry := newRunner(config{}, io.Discard).experiments
	artifact := regexp.MustCompile(`BENCH_[a-z]+\.json`)
	invocation := regexp.MustCompile(`qbench((?:\s+-[a-z]+\s+[^\s-]\S*)+)`)
	for _, name := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		text := strings.ReplaceAll(string(raw), "\\\n", " ")
		if m := artifact.FindString(text); m != "" {
			t.Errorf("%s mentions the deleted artifact %s", name, m)
		}
		for _, m := range invocation.FindAllStringSubmatch(text, -1) {
			args := strings.Fields(m[1])
			if !slices.Contains(args, "-exp") {
				continue // `find cmd/qbench -name ...`, not a run
			}
			for i := 0; i+1 < len(args); i += 2 {
				fl, val := args[i][1:], args[i+1]
				if flag.Lookup(fl) == nil {
					t.Errorf("%s: qbench flag -%s does not exist", name, fl)
				}
				if end := strings.IndexAny(val, "`'\")"); end >= 0 {
					val, args = val[:end], nil // the quoted command ends inside this token
				}
				if fl != "exp" {
					continue
				}
				for _, id := range expandExperiments(strings.TrimRight(val, ".,;:")) {
					if _, ok := registry[id]; !ok && id != "all" {
						t.Errorf("%s: qbench -exp %s is not a registered experiment", name, id)
					}
				}
			}
		}
	}
}

func TestEngineFactoriesFresh(t *testing.T) {
	// Each factory call must return an independent engine instance.
	for name, mk := range engineFactories {
		a, b := mk(), mk()
		if a == b {
			t.Errorf("factory %q returned a shared instance", name)
		}
		if a.Name() == "" {
			t.Errorf("factory %q engine has empty name", name)
		}
	}
}

func TestSyntheticExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	// Smoke: the dataset-free experiments run end to end without
	// panicking at tiny scale.
	r := newRunner(config{queries: 2, iters: 1, k: 10, pairs: 4, trials: 1, seed: 1}, io.Discard)
	for _, id := range []string{"fig5", "fig18", "table2"} {
		r.experiments[id]()
	}
}

// TestTablesGolden pins the retrieval tables byte for byte at a small
// scale: every experiment over the image collection and the vector
// world, at 12 queries of which 9 hit complex categories. Fig. 7's
// wall-clock table is cut, the one timing the golden file cannot hold.
// Go fuses x*y+z into one rounding on some architectures, so the bytes
// hold only where it does not.
func TestTablesGolden(t *testing.T) {
	switch runtime.GOARCH {
	case "arm64", "loong64", "ppc64", "ppc64le", "riscv64", "s390x":
		t.Skipf("GOARCH %s fuses multiply-add; the tables were recorded without fusion", runtime.GOARCH)
	}
	var out bytes.Buffer
	r := newRunner(config{cats: 12, perCat: 30, size: 24, bimodal: 0.5,
		queries: 12, iters: 3, k: 30, seed: 7}, &out)
	ids := expandExperiments("fig7,fig8,fig9,fig10,fig11,fig12,fig13,fig10c,fig12c,fig10v,fig12v,ablation,convergence")
	if err := r.run(ids); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	start := strings.Index(got, "Fig. 7 (companion): wall-clock")
	if start < 0 {
		t.Fatalf("no wall-clock table in\n%s", got)
	}
	end := strings.Index(got[start:], "\n\n")
	if end < 0 {
		t.Fatalf("wall-clock table not followed by a blank line in\n%s", got)
	}
	got = got[:start] + got[start+end+2:]
	want, err := os.ReadFile(filepath.Join("testdata", "tables.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got %q\nwant %q", i+1, g, w)
			}
		}
	}
}
