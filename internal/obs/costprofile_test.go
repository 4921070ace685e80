package obs

import (
	"testing"
	"time"
)

// eventsByName groups exported events by trace id for parentage checks.
func rootStarts(events []Event) []Event {
	var out []Event
	for _, e := range events {
		if e.Name == "start" {
			if r, _ := e.Field("root").(bool); r {
				out = append(out, e)
			}
		}
	}
	return out
}

func TestTracerContinuesRemoteTrace(t *testing.T) {
	sink := &MemorySink{}
	tr := NewTracer(TracerOptions{Sink: sink, SampleRate: 0, SlowThreshold: time.Hour})

	remote := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	start := time.Now()
	p := tr.Start("search", remote.Traceparent(), start)
	if p.Ctx.TraceID != remote.TraceID {
		t.Fatalf("trace id not continued: got %s, want %s", p.Ctx.TraceID, remote.TraceID)
	}
	if p.Parent != remote.SpanID {
		t.Fatalf("remote parent not recorded: got %s, want %s", p.Parent, remote.SpanID)
	}
	if !p.Sampled() {
		t.Fatal("incoming sampled flag must force export even at rate 0")
	}
	p.StageAt(StageQueue, start, time.Millisecond)
	tr.Finish(p, start.Add(5*time.Millisecond))

	events := sink.Events()
	roots := rootStarts(events)
	if len(roots) != 1 {
		t.Fatalf("exported %d root spans, want 1", len(roots))
	}
	if got := roots[0].Field("parent_span_id"); got != remote.SpanID.String() {
		t.Fatalf("root parent_span_id = %v, want %s", got, remote.SpanID)
	}
	if got := roots[0].Field("trace_id"); got != remote.TraceID.String() {
		t.Fatalf("root trace_id = %v, want %s", got, remote.TraceID)
	}
}

func TestTracerHeadSampling(t *testing.T) {
	sink := &MemorySink{}
	tr := NewTracer(TracerOptions{Sink: sink, SampleRate: 1, SlowThreshold: time.Hour})
	start := time.Now()
	p := tr.Start("search", "", start)
	if !p.Sampled() {
		t.Fatal("rate 1: request not sampled")
	}
	tr.Finish(p, start.Add(time.Millisecond))
	if len(rootStarts(sink.Events())) != 1 {
		t.Fatal("rate 1: no span exported")
	}

	// Rate 0 with a fast request: nothing exported.
	sink2 := &MemorySink{}
	tr2 := NewTracer(TracerOptions{Sink: sink2, SampleRate: 0, SlowThreshold: time.Hour})
	p2 := tr2.Start("search", "", start)
	if p2.Sampled() {
		t.Fatal("rate 0: request sampled")
	}
	tr2.Finish(p2, start.Add(time.Millisecond))
	if n := len(sink2.Events()); n != 0 {
		t.Fatalf("rate 0: %d events exported, want 0", n)
	}
}

func TestTracerTailKeepsSlowRequests(t *testing.T) {
	sink := &MemorySink{}
	slowLog := NewSlowLog(4)
	tr := NewTracer(TracerOptions{Sink: sink, SampleRate: 0, SlowThreshold: 10 * time.Millisecond, SlowLog: slowLog})

	start := time.Now()
	p := tr.Start("search", "", start)
	p.Status = 200
	p.K = 7
	p.AddSearch(start, 40*time.Millisecond, SearchStats{LeavesVisited: 3, LeavesTotal: 12})
	tr.Finish(p, start.Add(50*time.Millisecond)) // past the threshold

	if len(rootStarts(sink.Events())) != 1 {
		t.Fatal("slow request not exported despite head sampling miss")
	}
	entries := slowLog.Entries()
	if len(entries) != 1 {
		t.Fatalf("slow log has %d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.Name != "search" || e.Status != 200 || e.K != 7 {
		t.Fatalf("slow entry = %+v", e)
	}
	if e.DurationMS < 49 || e.DurationMS > 51 {
		t.Fatalf("DurationMS = %v, want ~50", e.DurationMS)
	}
	if ms := e.StageMS[StageNames[StageSearch]]; ms < 39 || ms > 41 {
		t.Fatalf("search stage ms = %v, want ~40", ms)
	}
	if e.Stats.LeavesVisited != 3 || e.Stats.LeavesTotal != 12 {
		t.Fatalf("stats = %+v", e.Stats)
	}
	if e.PruneRatio < 0.74 || e.PruneRatio > 0.76 {
		t.Fatalf("PruneRatio = %v, want 0.75", e.PruneRatio)
	}

	// A fast request stays out of both.
	p = tr.Start("search", "", start)
	tr.Finish(p, start.Add(time.Millisecond))
	if len(slowLog.Entries()) != 1 {
		t.Fatal("fast request leaked into the slow log")
	}
}

func TestTracerExportsStageAndShardChildren(t *testing.T) {
	sink := &MemorySink{}
	tr := NewTracer(TracerOptions{Sink: sink, SampleRate: 1})
	start := time.Now()
	p := tr.Start("search", "", start)
	p.StageAt(StageQueue, start, time.Millisecond)
	p.StageAt(StageSearch, start, 8*time.Millisecond)
	p.StageAt(StageMerge, start.Add(8*time.Millisecond), time.Millisecond)
	p.AddShard(0, start, 3*time.Millisecond, SearchStats{LeavesVisited: 1, LeavesTotal: 2, DistanceEvals: 10})
	p.AddShard(1, start, 5*time.Millisecond, SearchStats{LeavesVisited: 2, LeavesTotal: 2, DistanceEvals: 20})
	rootSpan := p.Ctx.SpanID.String()
	traceID := p.Ctx.TraceID.String()
	tr.Finish(p, start.Add(10*time.Millisecond))

	wantSpans := map[string]int{
		"request.search":        2, // root start + end
		"request.search.queue":  2,
		"request.search.search": 2,
		"request.search.merge":  2,
		"request.search.shard":  4, // two shards x start/end
	}
	got := map[string]int{}
	for _, e := range sink.Events() {
		got[e.Span]++
		if tid := e.Field("trace_id"); tid != traceID {
			t.Fatalf("event %s/%s trace_id = %v, want %s", e.Span, e.Name, tid, traceID)
		}
		if e.Span != "request.search" {
			if parent := e.Field("parent_span_id"); parent != rootSpan {
				t.Fatalf("child %s/%s parent_span_id = %v, want root %s", e.Span, e.Name, parent, rootSpan)
			}
		}
	}
	for span, n := range wantSpans {
		if got[span] != n {
			t.Fatalf("span %s: %d events, want %d (all: %v)", span, got[span], n, got)
		}
	}

	// Shard end events carry the per-shard search stats.
	for _, e := range sink.Events() {
		if e.Span != "request.search.shard" || e.Name != "end" {
			continue
		}
		shard, _ := e.Field("shard").(int)
		evals, _ := e.Field("distance_evals").(int)
		if want := (shard + 1) * 10; evals != want {
			t.Fatalf("shard %d distance_evals = %d, want %d", shard, evals, want)
		}
	}
}

func TestProfileStageAccumulates(t *testing.T) {
	var p CostProfile
	t0 := time.Now()
	p.StageAt(StageLock, t0, time.Millisecond)
	p.StageAt(StageLock, t0.Add(time.Second), 2*time.Millisecond)
	if d := p.StageDuration(StageLock); d != 3*time.Millisecond {
		t.Fatalf("accumulated lock stage = %v, want 3ms", d)
	}
	// Nil-safety: every method must be a no-op on a nil profile.
	var nilP *CostProfile
	nilP.StageAt(StageQueue, t0, time.Millisecond)
	nilP.AddSearch(t0, time.Millisecond, SearchStats{})
	nilP.AddShard(0, t0, time.Millisecond, SearchStats{})
	if nilP.StageDuration(StageQueue) != 0 || nilP.Sampled() || nilP.Shards() != nil {
		t.Fatal("nil profile methods must no-op")
	}
}

// TestUnsampledPathZeroAllocs is the CI allocation gate: a full
// unsampled request's obs-layer handling — Start with an incoming
// traceparent, stage timings, per-shard attribution, Finish — must not
// allocate. The pooled profile and its recycled shards slice make this
// hold after warm-up (AllocsPerRun runs the function once before
// measuring, which warms both).
func TestUnsampledPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts asserted in the non-race run")
	}
	slowLog := NewSlowLog(8)
	tr := NewTracer(TracerOptions{Sink: &MemorySink{}, SampleRate: 0, SlowThreshold: time.Hour, SlowLog: slowLog})
	remote := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	header := remote.Traceparent()
	start := time.Now()
	stats := SearchStats{LeavesVisited: 4, LeavesTotal: 16, DistanceEvals: 128}

	allocs := testing.AllocsPerRun(200, func() {
		p := tr.Start("search", header, start)
		p.StageAt(StageQueue, start, time.Microsecond)
		p.StageAt(StageSearch, start, time.Millisecond)
		for i := 0; i < 4; i++ {
			p.AddShard(i, start, time.Millisecond, stats)
		}
		p.StageAt(StageMerge, start, time.Microsecond)
		p.StageAt(StageEncode, start, time.Microsecond)
		p.Status = 200
		p.BytesOut = 512
		tr.Finish(p, start.Add(2*time.Millisecond))
	})
	if allocs != 0 {
		t.Fatalf("unsampled request path allocated %.1f times/op, want 0", allocs)
	}
}

func TestSnapshotMergeEdgeCases(t *testing.T) {
	// Zero-value destination: Merge must allocate the maps.
	var dst Snapshot
	src := Snapshot{
		Counters: map[string]int64{"a.count": 3},
		Gauges:   map[string]float64{"a.gauge": 1.5},
		Histograms: map[string]HistogramSnapshot{
			"a.hist": {Bounds: []float64{1, 2}, Counts: []int64{1, 0, 0}, Count: 1, Sum: 0.5},
		},
	}
	dst.Merge(src)
	if dst.Counters["a.count"] != 3 || dst.Gauges["a.gauge"] != 1.5 {
		t.Fatalf("merge into zero value: %+v", dst)
	}

	// Overlapping names: last wins, never summed.
	dst.Merge(Snapshot{Counters: map[string]int64{"a.count": 10}})
	if dst.Counters["a.count"] != 10 {
		t.Fatalf("overlapping counter = %d, want last-wins 10", dst.Counters["a.count"])
	}

	// Mismatched histogram bucket bounds: replaced wholesale — the
	// incoming bounds and counts, not an alignment or a sum.
	other := Snapshot{Histograms: map[string]HistogramSnapshot{
		"a.hist": {Bounds: []float64{5, 10, 20}, Counts: []int64{0, 2, 0, 0}, Count: 2, Sum: 15},
	}}
	dst.Merge(other)
	h := dst.Histograms["a.hist"]
	if len(h.Bounds) != 3 || h.Bounds[0] != 5 || h.Count != 2 || h.Sum != 15 {
		t.Fatalf("mismatched-bounds histogram not replaced wholesale: %+v", h)
	}

	// Merging an empty snapshot changes nothing.
	before := dst.Counters["a.count"]
	dst.Merge(Snapshot{})
	if dst.Counters["a.count"] != before {
		t.Fatal("empty merge mutated destination")
	}
}

func TestSlowLogRingAndOrdering(t *testing.T) {
	l := NewSlowLog(3)
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	record := func(name string, d time.Duration) {
		p := &CostProfile{Name: name, Start: time.Unix(0, 0), End: time.Unix(0, 0).Add(d)}
		p.Ctx = SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
		l.Record(p)
	}
	record("a", 10*time.Millisecond)
	record("b", 40*time.Millisecond)
	record("c", 20*time.Millisecond)
	record("d", 30*time.Millisecond) // wraps, evicting "a"

	entries := l.Entries()
	if len(entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(entries))
	}
	wantOrder := []string{"b", "d", "c"} // worst first
	for i, e := range entries {
		if e.Name != wantOrder[i] {
			t.Fatalf("order: got %v", []string{entries[0].Name, entries[1].Name, entries[2].Name})
		}
	}

	// Nil receivers no-op (slow log disabled).
	var nilLog *SlowLog
	nilLog.Record(&CostProfile{})
	if nilLog.Entries() != nil {
		t.Fatal("nil slow log Entries() != nil")
	}
}
