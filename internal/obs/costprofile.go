package obs

import (
	"context"
	"math/rand/v2"
	"sync"
	"time"
)

// This file is the request-scoped cost accounting and distributed
// tracing layer: every serving-tier request — sampled or not — fills
// one pooled CostProfile (stage durations, index work, per-shard
// breakdown, bytes), and the Tracer decides at the end whether the
// profile is exported as a span tree (head-based sampling probability,
// plus a tail-based "always keep slow" policy) and whether it enters
// the slow-query log. The unsampled fast path allocates nothing in
// steady state: profiles are pooled, stages write into fixed arrays,
// and per-shard slots reuse the slice capacity of the recycled profile
// (asserted by TestUnsampledRequestZeroAllocs).

// Stage indexes one timed segment of a request's life. The stages are
// the serving pipeline's fixed anatomy; per-shard work hangs off the
// search stage as its own child spans.
type Stage uint8

const (
	// StageQueue is the admission-control queue wait.
	StageQueue Stage = iota
	// StageLock is the per-session mutex wait (session endpoints only).
	StageLock
	// StageSearch is the index search: the whole scatter-gather for a
	// sharded backend, the single tree search otherwise.
	StageSearch
	// StageMerge is the cross-shard merge of per-shard top-k lists
	// (sharded backends only).
	StageMerge
	// StageFeedback is the query-model update (classify/cluster/merge)
	// of a feedback request.
	StageFeedback
	// StageEncode is the response encoding and write.
	StageEncode
	// StageResplit is the index maintenance an ingest request paid for:
	// the tree leaves its batch overflowed, re-split under the store
	// write lock (see index.InsertStats).
	StageResplit
	numStages
)

// StageNames maps Stage values to their span/JSON names.
var StageNames = [numStages]string{"queue", "lock", "search", "merge", "feedback", "encode", "resplit"}

// String returns the stage's name.
func (s Stage) String() string {
	if int(s) < len(StageNames) {
		return StageNames[s]
	}
	return "unknown"
}

// SearchStats records the work a search performed — the one declaration
// of the counters every layer reports: the index fills it, a shard gather
// sums its legs with Add, and request cost profiles, span ends and
// /debug/slow carry it as is. A swept search (Swept) reports the whole
// store as visited: LeavesVisited = LeavesTotal, so PruneRatio reads 0,
// and DistanceEvals is the probe phase's evaluations plus one per stored
// vector the sweep's workers evaluated, SkippedEvals one per vector they
// skipped.
type SearchStats struct {
	NodesVisited  int `json:"nodes_visited"` // internal + leaf nodes expanded
	LeavesVisited int `json:"leaves_visited"`
	// LeavesTotal is the number of leaves in the index at search time;
	// LeavesTotal - LeavesVisited is the pruned count (see PruneRatio).
	// 0 for searchers without a leaf structure (LinearScan).
	LeavesTotal   int `json:"leaves_total"`
	DistanceEvals int `json:"distance_evals"`
	// BatchedEvals counts the distance evaluations that went through the
	// bound-aware batch kernels — a subset of DistanceEvals; 0 when the
	// metric does not implement distance.BatchMetric.
	BatchedEvals int `json:"batched_evals"`
	// AbandonedEvals counts batched evaluations the kernel cut short
	// because the partial accumulation provably exceeded the pruning
	// bound. Each still counts in DistanceEvals (it is work the search
	// asked for), so AbandonedEvals/BatchedEvals is the fraction of
	// candidate evaluations the kernels did not pay in full.
	AbandonedEvals int `json:"abandoned_evals"`
	// SkippedEvals counts the stored vectors a sweep never evaluated: the
	// rows of a 64-row storage block whose box or ball bound was already
	// past its k-th best, the rows a tangent plane placed past it, and
	// the rows a nearest-first sweep left off its order or never reached
	// because it ended early. They are not in DistanceEvals: a completed
	// sweep has DistanceEvals + SkippedEvals = probe + store size.
	SkippedEvals int `json:"skipped_evals"`
	// Swept counts tree searches that found the tree not pruning and
	// finished as a sweep of the store's storage blocks, in storage order
	// or nearest first (0 or 1 for one search; Add sums the legs of a
	// sharded one).
	Swept int `json:"swept,omitempty"`
	// Workers is the number of goroutines that evaluated candidates: 1
	// unless the search swept a store large enough to share out. Like
	// CacheSeedLeaves it is read in process (Session.Stats, benchmarks)
	// and is no /debug/slow key.
	Workers int `json:"-"`
	// CacheSeedLeaves counts leaves evaluated from the refinement
	// searcher's cross-iteration cache before the traversal started —
	// the cache hits of the multipoint refinement approach.
	CacheSeedLeaves int `json:"-"`
}

// Add accumulates other into s: work counters sum; Workers keeps the
// maximum (it describes a configuration, not work done).
func (s *SearchStats) Add(other SearchStats) {
	s.NodesVisited += other.NodesVisited
	s.LeavesVisited += other.LeavesVisited
	s.LeavesTotal += other.LeavesTotal
	s.DistanceEvals += other.DistanceEvals
	s.BatchedEvals += other.BatchedEvals
	s.AbandonedEvals += other.AbandonedEvals
	s.SkippedEvals += other.SkippedEvals
	s.Swept += other.Swept
	s.CacheSeedLeaves += other.CacheSeedLeaves
	if other.Workers > s.Workers {
		s.Workers = other.Workers
	}
}

// LeavesPruned counts the index leaves the search never touched:
// LeavesTotal - LeavesVisited, or 0 when no leaf structure exists.
func (s SearchStats) LeavesPruned() int {
	if s.LeavesVisited >= s.LeavesTotal {
		return 0
	}
	return s.LeavesTotal - s.LeavesVisited
}

// PruneRatio is the fraction of index leaves the search never touched:
// 1 - LeavesVisited/LeavesTotal, or 0 when no leaf structure exists.
// Accumulated stats yield the visit-weighted aggregate ratio.
func (s SearchStats) PruneRatio() float64 {
	if s.LeavesTotal <= 0 || s.LeavesVisited >= s.LeavesTotal {
		return 0
	}
	return 1 - float64(s.LeavesVisited)/float64(s.LeavesTotal)
}

// ShardCost is one shard's contribution to a scatter-gather request:
// its own child span id, wall-clock, and index work.
type ShardCost struct {
	Shard    int           `json:"shard"`
	Span     SpanID        `json:"-"`
	Duration time.Duration `json:"-"`
	Stats    SearchStats   `json:"stats"`
}

// stageRecord is one timed stage: when it started and how long it ran.
type stageRecord struct {
	start time.Time
	dur   time.Duration
	set   bool
}

// CostProfile is the always-on per-request cost account: where one
// request spent its time (stage durations), what index work it caused
// (aggregate and per-shard), and how big it was on the wire. Profiles
// are created by Tracer.Start, threaded through the request via
// ContextWithProfile, and returned to the tracer's pool by
// Tracer.Finish — callers must not retain one past Finish.
//
// All methods are safe on a nil receiver (the no-tracer path) but NOT
// for concurrent use: a profile belongs to one request goroutine, and
// fan-out layers (the shard gather) record per-shard work after
// joining their workers.
type CostProfile struct {
	// Ctx is the root span context of the request: the trace id from
	// the incoming traceparent (or freshly generated) and this
	// request's own root span id.
	Ctx SpanContext
	// Parent is the remote parent span id from the incoming
	// traceparent (zero when the request started the trace).
	Parent SpanID
	// Name is the route label ("search", "session.feedback", ...).
	Name string
	// Start/End bound the request wall-clock.
	Start, End time.Time
	// Status is the HTTP status the request answered with.
	Status int
	// K is the requested result size (0 when not a retrieval).
	K int
	// BytesIn/BytesOut are the request/response body sizes.
	BytesIn, BytesOut int64
	// Stats is the aggregate index work across all shards.
	Stats SearchStats

	stages [numStages]stageRecord
	shards []ShardCost
	tracer *Tracer
}

// Duration returns End-Start (0 before Finish).
func (p *CostProfile) Duration() time.Duration {
	if p == nil || p.End.IsZero() {
		return 0
	}
	return p.End.Sub(p.Start)
}

// StageAt records one stage's start time and duration. Recording the
// same stage again accumulates the duration and keeps the first start
// (a request retries a stage, the span covers both attempts).
func (p *CostProfile) StageAt(s Stage, start time.Time, d time.Duration) {
	if p == nil || s >= numStages {
		return
	}
	r := &p.stages[s]
	if !r.set {
		r.start = start
		r.set = true
	}
	r.dur += d
}

// StageDuration returns the recorded duration of a stage (0 when the
// stage never ran).
func (p *CostProfile) StageDuration(s Stage) time.Duration {
	if p == nil || s >= numStages {
		return 0
	}
	return p.stages[s].dur
}

// AddSearch records index work and its wall-clock under the search
// stage — the single-database path's equivalent of the shard layer's
// AddShard+merge accounting.
func (p *CostProfile) AddSearch(start time.Time, d time.Duration, stats SearchStats) {
	if p == nil {
		return
	}
	p.StageAt(StageSearch, start, d)
	p.Stats.Add(stats)
}

// AddShard records one shard's scatter-gather leg as a child span of
// the search stage, reusing the recycled profile's slice capacity.
func (p *CostProfile) AddShard(shard int, start time.Time, d time.Duration, stats SearchStats) {
	if p == nil {
		return
	}
	_ = start
	p.shards = append(p.shards, ShardCost{Shard: shard, Span: NewSpanID(), Duration: d, Stats: stats})
	p.Stats.Add(stats)
}

// Shards returns the per-shard breakdown (nil for unsharded requests).
// The slice is owned by the profile and invalid after Finish.
func (p *CostProfile) Shards() []ShardCost {
	if p == nil {
		return nil
	}
	return p.shards
}

// Sampled reports whether the head-based sampling decision (or the
// incoming traceparent's sampled flag) selected this request for span
// export. Tail-kept slow requests export too — see Tracer.Finish.
func (p *CostProfile) Sampled() bool { return p != nil && p.Ctx.Sampled }

// reset clears the profile for reuse, keeping slice capacity.
func (p *CostProfile) reset() {
	p.shards = p.shards[:0]
	*p = CostProfile{shards: p.shards}
}

// profileKey is the context key for the request's CostProfile.
type profileKey struct{}

// ContextWithProfile attaches a profile to the context so lower layers
// (the database search paths, the shard gather) can attribute their
// work to the owning request.
func ContextWithProfile(ctx context.Context, p *CostProfile) context.Context {
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, profileKey{}, p)
}

// ProfileFromContext returns the request's profile, or nil.
func ProfileFromContext(ctx context.Context) *CostProfile {
	p, _ := ctx.Value(profileKey{}).(*CostProfile)
	return p
}

// TracerOptions configures a Tracer.
type TracerOptions struct {
	// Sink receives exported span events (nil: profiles still flow to
	// the slow log, but no spans are exported).
	Sink Sink
	// SampleRate is the head-based export probability in [0, 1] for
	// requests that do not arrive with a sampled traceparent. An
	// incoming sampled flag forces export regardless.
	SampleRate float64
	// SlowThreshold is the tail-based policy: a request at least this
	// slow is exported (and slow-logged) even when head sampling passed
	// it by. 0 uses DefaultSlowThreshold.
	SlowThreshold time.Duration
	// SlowLog, when non-nil, receives the profiles of slow requests.
	SlowLog *SlowLog
}

// DefaultSlowThreshold is the slow-request cutoff when TracerOptions
// leaves it zero.
const DefaultSlowThreshold = 250 * time.Millisecond

// Tracer owns the per-request tracing policy: it mints profiles from a
// pool, makes the head-based sampling decision at Start, and at Finish
// applies the tail-based slow policy, exports the span tree, feeds the
// slow log, and recycles the profile. A nil *Tracer is fully disabled:
// Start returns a nil profile and every downstream method no-ops.
type Tracer struct {
	sink       Sink
	sampleRate float64
	slow       time.Duration
	slowLog    *SlowLog
	pool       sync.Pool
}

// NewTracer builds a tracer. See TracerOptions for the policy knobs.
func NewTracer(opt TracerOptions) *Tracer {
	slow := opt.SlowThreshold
	if slow == 0 {
		slow = DefaultSlowThreshold
	}
	t := &Tracer{sink: opt.Sink, sampleRate: opt.SampleRate, slow: slow, slowLog: opt.SlowLog}
	t.pool.New = func() any { return &CostProfile{} }
	return t
}

// Exports reports whether the tracer has a span sink attached (i.e.
// sampled or slow requests will render span trees).
func (t *Tracer) Exports() bool { return t != nil && t.sink != nil }

// SlowLog returns the tracer's slow-query log (nil when disabled).
func (t *Tracer) SlowLog() *SlowLog {
	if t == nil {
		return nil
	}
	return t.slowLog
}

// Start opens the root span of one request. traceparent is the raw
// incoming header value ("" when absent): a valid header continues the
// remote trace (its sampled flag forces export); otherwise a fresh
// trace id is minted and head sampling rolls the dice. The returned
// profile must be passed to Finish exactly once.
func (t *Tracer) Start(name, traceparent string, start time.Time) *CostProfile {
	if t == nil {
		return nil
	}
	p := t.pool.Get().(*CostProfile)
	p.Name = name
	p.Start = start
	p.tracer = t
	if sc, ok := ParseTraceparent(traceparent); ok {
		p.Ctx.TraceID = sc.TraceID
		p.Parent = sc.SpanID
		p.Ctx.Sampled = sc.Sampled || t.roll()
	} else {
		p.Ctx.TraceID = NewTraceID()
		p.Ctx.Sampled = t.roll()
	}
	p.Ctx.SpanID = NewSpanID()
	return p
}

// roll makes the head-based sampling decision.
func (t *Tracer) roll() bool {
	if t.sink == nil || t.sampleRate <= 0 {
		return false
	}
	return t.sampleRate >= 1 || rand.Float64() < t.sampleRate
}

// Finish closes the request's root span: stamps End, applies the
// tail-based slow policy, exports the span tree when selected, records
// slow requests into the slow log, and recycles the profile. The
// profile (and its Shards slice) is invalid afterwards.
func (t *Tracer) Finish(p *CostProfile, end time.Time) {
	if t == nil || p == nil {
		return
	}
	p.End = end
	slow := p.End.Sub(p.Start) >= t.slow
	if t.sink != nil && (p.Ctx.Sampled || slow) {
		t.export(p)
	}
	if slow && t.slowLog != nil {
		t.slowLog.Record(p)
	}
	p.reset()
	t.pool.Put(p)
}

// export renders the profile as a span tree on the sink: one root span
// (start/end events) whose children are the recorded stages and the
// per-shard search legs. Field conventions: every event carries
// "trace_id" and "span_id"; children carry "parent_span_id" equal to
// the root's span id; the root start event carries "root"=true plus
// "parent_span_id" only when the trace continued a remote parent.
func (t *Tracer) export(p *CostProfile) {
	traceID := p.Ctx.TraceID.String()
	rootSpan := p.Ctx.SpanID.String()
	rootName := "request." + p.Name

	rootFields := []Field{
		F("trace_id", traceID), F("span_id", rootSpan), F("root", true),
		F("sampled", p.Ctx.Sampled),
	}
	if p.Parent.IsValid() {
		rootFields = append(rootFields, F("parent_span_id", p.Parent.String()))
	}
	t.sink.Emit(Event{Span: rootName, Name: "start", Time: p.Start, Fields: rootFields})

	for s := Stage(0); s < numStages; s++ {
		r := &p.stages[s]
		if !r.set {
			continue
		}
		span := NewSpanID().String()
		name := rootName + "." + StageNames[s]
		t.sink.Emit(Event{Span: name, Name: "start", Time: r.start, Fields: []Field{
			F("trace_id", traceID), F("span_id", span), F("parent_span_id", rootSpan),
		}})
		t.sink.Emit(Event{Span: name, Name: "end", Time: r.start.Add(r.dur), Fields: []Field{
			F("trace_id", traceID), F("span_id", span), F("parent_span_id", rootSpan),
			F("elapsed_ms", float64(r.dur)/1e6),
		}})
	}

	for i := range p.shards {
		sc := &p.shards[i]
		name := rootName + ".shard"
		end := p.stages[StageSearch].start.Add(sc.Duration)
		t.sink.Emit(Event{Span: name, Name: "start", Time: p.stages[StageSearch].start, Fields: []Field{
			F("trace_id", traceID), F("span_id", sc.Span.String()), F("parent_span_id", rootSpan),
			F("shard", sc.Shard),
		}})
		t.sink.Emit(Event{Span: name, Name: "end", Time: end, Fields: []Field{
			F("trace_id", traceID), F("span_id", sc.Span.String()), F("parent_span_id", rootSpan),
			F("shard", sc.Shard),
			F("elapsed_ms", float64(sc.Duration)/1e6),
			F("leaves_visited", sc.Stats.LeavesVisited),
			F("leaves_total", sc.Stats.LeavesTotal),
			F("distance_evals", sc.Stats.DistanceEvals),
			F("batched_evals", sc.Stats.BatchedEvals),
			F("abandoned_evals", sc.Stats.AbandonedEvals),
			F("skipped_evals", sc.Stats.SkippedEvals),
			F("swept", sc.Stats.Swept),
			F("prune_ratio", sc.Stats.PruneRatio()),
		}})
	}

	rootEnd := []Field{
		F("trace_id", traceID), F("span_id", rootSpan), F("root", true),
		F("status", p.Status), F("k", p.K),
		F("bytes_in", p.BytesIn), F("bytes_out", p.BytesOut),
		F("elapsed_ms", float64(p.End.Sub(p.Start))/1e6),
		F("leaves_visited", p.Stats.LeavesVisited),
		F("distance_evals", p.Stats.DistanceEvals),
		F("abandoned_evals", p.Stats.AbandonedEvals),
		F("skipped_evals", p.Stats.SkippedEvals),
		F("swept", p.Stats.Swept),
		F("prune_ratio", p.Stats.PruneRatio()),
	}
	t.sink.Emit(Event{Span: rootName, Name: "end", Time: p.End, Fields: rootEnd})
}

// SpanSink wraps the tracer's sink for one request: events emitted
// through it (the PR-3 feedback classify/cluster spans) are forwarded
// with the request's trace id and root span id attached, making them
// children of the request trace. Returns nil — a disabled Sink — when
// the request is not being exported.
func (t *Tracer) SpanSink(p *CostProfile) Sink {
	if t == nil || t.sink == nil || p == nil || !p.Ctx.Sampled {
		return nil
	}
	return &childSink{sink: t.sink, traceID: p.Ctx.TraceID.String(), parent: p.Ctx.SpanID.String()}
}

// childSink annotates forwarded events with trace parentage.
type childSink struct {
	sink    Sink
	traceID string
	parent  string
}

// Emit implements Sink.
func (c *childSink) Emit(e Event) {
	fields := make([]Field, 0, len(e.Fields)+2)
	fields = append(fields, F("trace_id", c.traceID), F("parent_span_id", c.parent))
	fields = append(fields, e.Fields...)
	e.Fields = fields
	c.sink.Emit(e)
}
