package qcluster

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/synth"
)

// TestPanicBarrierNonContextForms is the regression test for the forms
// that used to have no barrier: an internal panic under Search,
// SearchByExample or Session.Results yields nil instead of crashing the
// caller, moves "search.errors" by exactly one, and leaves the database
// (and the session, whose mutex the panic used to strand) answering the
// next query normally.
func TestPanicBarrierNonContextForms(t *testing.T) {
	defer faultinject.Reset()
	rng := rand.New(rand.NewSource(14))
	// Small collection: the traversal is sequential, so the KNNPop hook
	// panics on the calling goroutine, under the barrier.
	db, err := NewDatabase(synth.Gaussian[[]float64](rng, 100, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	searchErrors := func() int64 { return db.Metrics().Counters["search.errors"] }

	// TestPanicBarrier's case: a 5-d query indexes out of range inside
	// the metric evaluated against 3-d stored vectors.
	q := NewQuery(Options{})
	if err := q.Feedback([]Point{
		{ID: 0, Vec: []float64{1, 2, 3, 4, 5}, Score: 3},
		{ID: 1, Vec: []float64{1, 2, 3, 4, 6}, Score: 3},
	}); err != nil {
		t.Fatal(err)
	}
	if res := db.Search(q, 5); res != nil {
		t.Fatalf("Search under a trapped panic returned %d results, want nil", len(res))
	}
	if got := searchErrors(); got != 1 {
		t.Fatalf("search.errors = %d after one trapped panic, want 1", got)
	}

	sess := db.NewSession(db.Vector(0), Options{})
	faultinject.Set(faultinject.KNNPop, func() { panic("injected traversal fault") })
	if res := db.SearchByExample(db.Vector(0), 5); res != nil {
		t.Fatalf("SearchByExample under a trapped panic returned %d results, want nil", len(res))
	}
	if res := sess.Results(5); res != nil {
		t.Fatalf("Session.Results under a trapped panic returned %d results, want nil", len(res))
	}
	// The exported SessionSearcher method keeps execute's barrier: a
	// caller outside a Session has no barrier of its own.
	var ie *InternalError
	if _, _, _, err := db.SearchMetric(context.Background(), EuclideanMetric(db.Vector(0)), 5); !errors.As(err, &ie) {
		t.Fatalf("SearchMetric under a trapped panic: err = %v, want *InternalError", err)
	}
	faultinject.Clear(faultinject.KNNPop)
	if got := searchErrors(); got != 4 {
		t.Fatalf("search.errors = %d after four trapped panics, want 4", got)
	}
	if st := sess.Stats(); st.Searches != 0 {
		t.Fatalf("session counted %d searches, none completed", st.Searches)
	}

	if res := db.SearchByExample(db.Vector(0), 5); len(res) != 5 {
		t.Fatalf("database unusable after trapped panics: %d results", len(res))
	}
	if res := sess.Results(5); len(res) != 5 {
		t.Fatalf("session unusable after a trapped panic: %d results", len(res))
	}
	if got := searchErrors(); got != 4 {
		t.Fatalf("search.errors = %d after healthy searches, want it to stay 4", got)
	}
}

// funcRefs parses dir's non-test Go files and returns, per function
// ("file.go:name"), the identifiers and selector names its body refers
// to.
func funcRefs(t *testing.T, dir string) map[string]map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			refs := map[string]bool{}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.Ident:
					refs[x.Name] = true
				case *ast.SelectorExpr:
					refs[x.Sel.Name] = true
				}
				return true
			})
			out[filepath.Base(path)+":"+fn.Name.Name] = refs
		}
	}
	return out
}

// TestSearchChokePoint keeps the one search pipeline one: in the root
// package only execute and the dispatch it calls may touch the tree's
// k-NN search, the search metrics, the cost profile's search stage or
// the partial-results error, and only addBatch may append to the store,
// insert into the tree or record an insert's metrics; and across the root,
// internal/shard and internal/server the feedback validation, the
// MarkRelevant loop and the "refined or example?" metric decision each
// live in exactly one function. A new entry point is a request handed
// to execute, not another copy of the wrapper.
func TestSearchChokePoint(t *testing.T) {
	pipeline := map[string]bool{
		"database.go:execute":    true,
		"database.go:searchTree": true,
	}
	guarded := []string{"searchTree", "KNNSharedContext", "observeSearch", "AddSearch", "wrapInterrupt"}
	const writer = "database.go:addBatch"
	writes := []string{"Append", "InsertBatch", "Insert", "observeInsert"}
	root := funcRefs(t, ".")
	for name := range pipeline {
		if root[name] == nil {
			t.Errorf("pipeline function %s not found — update the test's allow-list with the rename", name)
		}
	}
	if root[writer] == nil {
		t.Errorf("write path %s not found — update the test with the rename", writer)
	}
	for fn, refs := range root {
		for _, g := range guarded {
			if refs[g] && !pipeline[fn] {
				t.Errorf("%s references %s: only execute and its dispatch may — build a searchRequest and call execute", fn, g)
			}
		}
		for _, w := range writes {
			if refs[w] && fn != writer {
				t.Errorf("%s references %s: only addBatch may — call it with a batch (of one, for a single vector)", fn, w)
			}
		}
	}

	var validates, marks, decides []string
	for _, dir := range []string{".", "internal/shard", "internal/server"} {
		for fn, refs := range funcRefs(t, dir) {
			name := filepath.Join(dir, fn)
			if refs["checkFinite"] || (refs["IsNaN"] && refs["Score"]) {
				validates = append(validates, name)
			}
			if strings.HasSuffix(fn, ":MarkRelevant") {
				marks = append(marks, name)
			}
			if refs["Ready"] && (refs["Euclidean"] || refs["EuclideanMetric"]) {
				decides = append(decides, name)
			}
		}
	}
	for what, got := range map[string][]string{
		"feedback-point validation (checkFinite)":            validates,
		"MarkRelevant implementation":                        marks,
		"refined-or-example metric decision (resolveMetric)": decides,
	} {
		sort.Strings(got)
		if len(got) != 1 {
			t.Errorf("%s must live in exactly one non-test function, found %d: %v", what, len(got), got)
		}
	}
}
