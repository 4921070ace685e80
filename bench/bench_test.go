package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, tc := range []struct{ p, want float64 }{{50, 3}, {90, 5}, {20, 1}, {21, 2}, {100, 5}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

// The picked percentile must leave at least ten samples beyond it.
func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		got := highestPercentile(tc.n)
		if got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if tc.n >= 20 {
			// Nearest rank in whole tenths of a percent: 99.9/100*10000 is
			// not exactly 9990 in floating point.
			rank := (tc.n*int(math.Round(got*10)) + 999) / 1000
			if beyond := tc.n - rank; beyond < 10 {
				t.Errorf("n=%d: p%v leaves %d samples beyond it", tc.n, got, beyond)
			}
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), the
// acceptance check's spread measure.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 20})
	if q1 != 7.5 || q2 != 15 || q3 != 22.5 {
		t.Errorf("quartiles(10, 20) = %v %v %v, want 7.5 15 22.5", q1, q2, q3)
	}
}

// The quiet sample is the blocks with the shortest median session, as few
// as hold quietSessions sessions, whatever order they ran in.
func TestQuietBlocks(t *testing.T) {
	var recs []sessionRecord
	var blocks []block
	// Each block: its sessions' wall clock in ms, and how many times over.
	for _, b := range []struct {
		ms    []time.Duration
		times int
	}{
		{[]time.Duration{9, 9, 9}, 20}, {[]time.Duration{3, 5, 50}, 15}, {[]time.Duration{8, 8, 8}, 20},
		{[]time.Duration{4, 4, 4}, 15}, {[]time.Duration{7, 7, 7}, 20}, {[]time.Duration{2, 20, 30}, 20},
	} {
		blk := block{first: len(recs)}
		for i := 0; i < b.times; i++ {
			for _, w := range b.ms {
				recs = append(recs, sessionRecord{wall: w * time.Millisecond})
			}
		}
		blk.end = len(recs)
		blocks = append(blocks, blk)
	}
	first := func(bs []block) (out []int) {
		for _, b := range bs {
			out = append(out, b.first)
		}
		return out
	}
	// Medians 9 5 8 4 7 20 over 60 45 60 45 60 60 sessions: the quietest
	// block holds 45, so a second joins; a few fast sessions in a slow block
	// (the last one) do not make it quiet.
	if got := first(quietBlocks(recs, blocks)); !reflect.DeepEqual(got, []int{165, 60}) {
		t.Errorf("quiet blocks start at %v, want [165 60] (medians 4 and 5)", got)
	}
	if got := first(quietBlocks(recs, blocks[:1])); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("one short block: quiet blocks start at %v, want it alone", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "session", Start: 0, End: 100, Parent: noSpan},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: counted once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent
		{Name: "a.child", Start: 12, End: 17, Parent: 1},
		{Name: "elsewhere", Start: 40, End: 60, Parent: noSpan},
	}
	want := []time.Duration{100 - 40 - 10, 20 - 5, 30, 30, 5, 20}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var rec *spanRecorder
	id := rec.start("x", noSpan, 1)
	rec.end(id)
	ran := false
	rec.timed("y", id, 1, func() { ran = true })
	if id != noSpan || !ran {
		t.Errorf("nil recorder: id %v, fn ran %v", id, ran)
	}
}

func TestParseMetricsText(t *testing.T) {
	text := `# HELP qcluster_server_requests total requests
# TYPE qcluster_server_requests counter
qcluster_server_requests 5

qcluster_search_latency_seconds_bucket{le="0.001"} 2
qcluster_search_latency_seconds_bucket{le="+Inf"} 2
qcluster_search_latency_seconds_sum 0.000246271
qcluster_weird{label="a b"} 1e+06
`
	got, err := parseMetricsText(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"qcluster_server_requests":                           5,
		`qcluster_search_latency_seconds_bucket{le="0.001"}`: 2,
		`qcluster_search_latency_seconds_bucket{le="+Inf"}`:  2,
		"qcluster_search_latency_seconds_sum":                0.000246271,
		`qcluster_weird{label="a b"}`:                        1e6,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed %v, want %v", got, want)
	}
	for _, bad := range []string{"novalue", "name notanumber"} {
		if _, err := parseMetricsText(bad); err == nil {
			t.Errorf("parseMetricsText(%q) accepted a malformed sample", bad)
		}
	}
	before := opsSnapshot{metrics: map[string]float64{"qcluster_server_requests": 2}}
	after := opsSnapshot{metrics: got}
	if d := delta(before, after, "server_requests"); d != 3 {
		t.Errorf("delta = %v, want 3", d)
	}
}

func TestParseProcStatCPU(t *testing.T) {
	// comm holds a space and a ')': fields are counted from the last ')'.
	stat := "1234 (q serve) x) S 1 1234 1234 0 -1 4194560 500 0 0 0 150 50 0 0 20 0 4 0 100 1000 200"
	got, err := parseProcStatCPU(stat)
	if err != nil || got != 2.0 {
		t.Errorf("parseProcStatCPU = %v, %v; want 2.0 (150+50 ticks)", got, err)
	}
	if _, err := parseProcStatCPU("1 (x) S 1 2"); err == nil {
		t.Error("accepted a truncated stat line")
	}
}

func TestReadTraceLog(t *testing.T) {
	lines := []string{
		`{"event":"start","root":true,"span":"request.session.results","span_id":"a"}`,
		`{"event":"end","parent_span_id":"a","span":"request.session.results.search","elapsed_ms":0.2}`,
		`{"event":"end","parent_span_id":"a","span":"request.session.results.encode","elapsed_ms":0.1}`,
		`{"event":"end","root":true,"span":"request.session.results","elapsed_ms":0.5,"leaves_visited":3,"distance_evals":200,"abandoned_evals":50,"prune_ratio":0.9}`,
		`{"event":"end","parent_span_id":"b","span":"feedback.round","elapsed_ms":9}`,
		`{"event":"end","parent_span_id":"b","span":"request.session.feedback.feedback","elapsed_ms":0.3}`,
		`{"event":"end","root":true,"span":"request.session.feedback","elapsed_ms":0.4}`,
		`{"event":"search.done","span":"","latency_ms":0.2}`,
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ts, err := readTraceLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if ts.requests != 2 || ts.searches != 1 || ts.requestMS != 0.9 {
		t.Errorf("requests %d searches %d requestMS %v, want 2 1 0.9", ts.requests, ts.searches, ts.requestMS)
	}
	wantStages := map[string]float64{"search": 0.2, "encode": 0.1, "feedback": 0.3}
	if !reflect.DeepEqual(ts.stageMS, wantStages) {
		t.Errorf("stages %v, want %v", ts.stageMS, wantStages)
	}
	if ts.leaves != 3 || ts.evals != 200 || ts.abandoned != 50 || ts.prune != 0.9 {
		t.Errorf("search counters %+v", ts)
	}
}

// The same seed must generate the same inputs, a different seed different
// ones, and every cycle must query each category exactly once.
func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	c := mixtureCorpus(mixtureSpec{cats: 12, perCat: 8, dim: 3})
	draw := func(seed int64) (queries []int, ingests [][][]float64) {
		s := newStream(seed, c)
		for i := 0; i < 30; i++ {
			q := s.nextQuery()
			queries = append(queries, q)
			ingests = append(ingests, s.nextIngest(c.labels[q]))
		}
		return
	}
	q1, i1 := draw(7)
	q2, i2 := draw(7)
	q3, _ := draw(8)
	if !reflect.DeepEqual(q1, q2) || !reflect.DeepEqual(i1, i2) {
		t.Error("the same seed drew different inputs")
	}
	if reflect.DeepEqual(q1, q3) {
		t.Error("different seeds drew the same queries")
	}
	for cycle := 0; cycle < 2; cycle++ {
		seen := make(map[int]bool)
		for _, q := range q1[cycle*12 : (cycle+1)*12] {
			seen[c.labels[q]] = true
		}
		if len(seen) != 12 {
			t.Errorf("cycle %d queried %d of 12 categories", cycle, len(seen))
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{name: "x_ms", better: "lower", bound: 0.10}
	higher := metricSpec{name: "x_per_s", better: "higher", bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{100, 130, 80, 120, 90}
	for _, tc := range []struct {
		name      string
		spec      metricSpec
		base, new []float64
		want      string
	}{
		{"same", lower, steady, steady, "unchanged"},
		{"within the bound", lower, steady, []float64{105, 106, 104, 105, 105}, "unchanged"},
		{"slower", lower, steady, []float64{115, 116, 114, 115, 115}, "regressed"},
		{"faster", lower, steady, []float64{80, 81, 79, 80, 80}, "improved"},
		{"fewer per second", higher, steady, []float64{85, 86, 84, 85, 85}, "regressed"},
		{"more per second", higher, steady, []float64{120, 121, 119, 120, 120}, "improved"},
		{"too noisy to call", lower, noisy, []float64{95, 125, 85, 115, 90}, "unresolved"},
		{"noisy but every run better", lower, noisy, []float64{50, 60, 40, 55, 45}, "improved"},
		{"single runs", lower, []float64{100}, []float64{120}, "regressed"},
		{"single runs cannot show a small gain", lower, []float64{100}, []float64{90}, "unchanged"},
	} {
		if got := verdict(tc.spec, tc.base, tc.new); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// BENCHMARK.json restates the harness's tables for the driver; they must
// not drift apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, doc.Workloads[i].Name, w.name)
		}
		if n := len(doc.Workloads[i].Why); n == 0 || n > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.name, n)
		}
	}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, spec := range want {
			g := got[i]
			if g.Name != spec.name || g.Unit != spec.unit || g.Better != spec.better {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, harness %s %s %s", kind, i, g, spec.name, spec.unit, spec.better)
			}
			if bounded != (g.Bound != nil) || bounded && *g.Bound != spec.bound {
				t.Errorf("%s metric %s: bound in BENCHMARK.json does not match the harness's %v", kind, spec.name, spec.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

func TestContractLine(t *testing.T) {
	r := runResult{Attempted: 10, Failed: 0, EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}}
	for _, spec := range endToEnd {
		r.EndToEnd[spec.name] = 1.5
	}
	for _, trace := range []bool{false, true} {
		var got struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		line := contractLine(r, trace)
		if strings.Contains(line, "\n") {
			t.Fatalf("result spans several lines: %q", line)
		}
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if trace {
			want = perLayer
		}
		if !got.Correct || got.Attempted != 10 || len(got.Metrics) != len(want) {
			t.Errorf("trace=%v: %+v", trace, got)
		}
		for _, spec := range want {
			if got.Metrics[spec.name].Unit != spec.unit {
				t.Errorf("trace=%v: metric %s has unit %q, want %q", trace, spec.name, got.Metrics[spec.name].Unit, spec.unit)
			}
		}
	}
}

// TestSmoke runs the shrunken grid end to end against a real qserve: all
// four workloads with the layer pass, every session oracle-checked.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots qserve; skipped with -short")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "qserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/qserve")
	build.Dir = root
	if msg, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building qserve: %v\n%s", err, msg)
	}
	cfg := runConfig{qserveBin: bin, workDir: filepath.Join(tmp, "work"), outDir: filepath.Join(tmp, "out"), seed: 7, trace: true}
	start := time.Now()
	var corelDigest string
	for _, w := range smokeWorkloads() {
		res, err := runWorkload(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || res.Sessions != 20 {
			t.Errorf("%s: %d sessions, %d of %d operations failed", w.name, res.Sessions, res.Failed, res.Attempted)
		}
		if got := res.PerLayer["rf.oracle_checked_pages"]; got != 20*(feedbackRounds+1) {
			t.Errorf("%s: %v pages oracle-checked, want every page of 20 sessions", w.name, got)
		}
		if got := res.PerLayer["harness.connections"]; got != 1 {
			t.Errorf("%s: the client opened %v connections, want 1", w.name, got)
		}
		for _, spec := range endToEnd {
			if v, ok := res.EndToEnd[spec.name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, spec.name, v)
			}
		}
		for _, spec := range perLayer {
			if _, ok := res.PerLayer[spec.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.name, spec.name)
			}
		}
		if w.mixture != nil && res.EndToEnd["precision_at_100_final"] != 0.64 {
			t.Errorf("%s: precision %v, want exactly 0.64 (64 per cluster, k=100)", w.name, res.EndToEnd["precision_at_100_final"])
		}
		if _, err := os.Stat(filepath.Join(cfg.outDir, w.name+".trace.jsonl")); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
		if w.name == "corel_session" {
			corelDigest = res.StreamDigest
		}
	}
	t.Logf("smoke grid took %s", time.Since(start).Round(time.Millisecond))

	// Same seed ⇒ byte-identical request stream; another seed ⇒ another.
	w, _ := findWorkload(smokeWorkloads(), "corel_session")
	cfg.trace = false
	again, err := runWorkload(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.StreamDigest != corelDigest {
		t.Errorf("seed 7 produced two request streams: %s and %s", corelDigest, again.StreamDigest)
	}
	cfg.seed = 8
	other, err := runWorkload(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if other.StreamDigest == corelDigest {
		t.Error("seeds 7 and 8 produced the same request stream")
	}
}
