package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync/atomic"
	"time"
)

// SlowLog is a lock-free ring buffer of the most recent slow-request
// profiles, served at /debug/slow. Writers claim a slot with one atomic
// increment and publish an immutable entry with one atomic pointer
// store; readers snapshot the pointers without blocking writers. The
// ring holds the N most *recent* slow requests; the HTTP handler sorts
// them worst-first so the page answers "what were the worst recent
// queries and what were their trace ids".
type SlowLog struct {
	entries []atomic.Pointer[SlowEntry]
	next    atomic.Uint64
}

// SlowEntry is one slow request, frozen at Finish time. Unlike the
// pooled CostProfile it is immutable and owns all its memory, so it can
// sit in the ring (and be serialized) long after the profile was
// recycled.
type SlowEntry struct {
	TraceID    string    `json:"trace_id"`
	SpanID     string    `json:"span_id"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Status     int       `json:"status,omitempty"`
	K          int       `json:"k,omitempty"`
	BytesIn    int64     `json:"bytes_in,omitempty"`
	BytesOut   int64     `json:"bytes_out,omitempty"`
	Sampled    bool      `json:"sampled"`
	// StageMS maps stage name → milliseconds for stages that ran.
	StageMS    map[string]float64 `json:"stage_ms,omitempty"`
	Stats      SearchStats        `json:"stats"`
	PruneRatio float64            `json:"prune_ratio"`
	Shards     []SlowShard        `json:"shards,omitempty"`
}

// SlowShard is one shard's leg of a slow request.
type SlowShard struct {
	Shard      int         `json:"shard"`
	DurationMS float64     `json:"duration_ms"`
	Stats      SearchStats `json:"stats"`
	PruneRatio float64     `json:"prune_ratio"`
}

// NewSlowLog builds a ring holding the size most recent slow requests
// (minimum 1).
func NewSlowLog(size int) *SlowLog {
	if size < 1 {
		size = 1
	}
	return &SlowLog{entries: make([]atomic.Pointer[SlowEntry], size)}
}

// Len returns the ring capacity.
func (l *SlowLog) Len() int { return len(l.entries) }

// Record freezes the profile into the ring. Only called on the slow
// path, so the entry allocation is acceptable by construction.
func (l *SlowLog) Record(p *CostProfile) {
	if l == nil || p == nil {
		return
	}
	e := &SlowEntry{
		TraceID:    p.Ctx.TraceID.String(),
		SpanID:     p.Ctx.SpanID.String(),
		Name:       p.Name,
		Start:      p.Start,
		DurationMS: float64(p.End.Sub(p.Start)) / 1e6,
		Status:     p.Status,
		K:          p.K,
		BytesIn:    p.BytesIn,
		BytesOut:   p.BytesOut,
		Sampled:    p.Ctx.Sampled,
		Stats:      p.Stats,
		PruneRatio: p.Stats.PruneRatio(),
	}
	for s := Stage(0); s < numStages; s++ {
		if d := p.StageDuration(s); d > 0 {
			if e.StageMS == nil {
				e.StageMS = make(map[string]float64, int(numStages))
			}
			e.StageMS[StageNames[s]] = float64(d) / 1e6
		}
	}
	if shards := p.Shards(); len(shards) > 0 {
		e.Shards = make([]SlowShard, len(shards))
		for i, sc := range shards {
			e.Shards[i] = SlowShard{
				Shard:      sc.Shard,
				DurationMS: float64(sc.Duration) / 1e6,
				Stats:      sc.Stats,
				PruneRatio: sc.Stats.PruneRatio(),
			}
		}
	}
	i := l.next.Add(1) - 1
	l.entries[i%uint64(len(l.entries))].Store(e)
}

// Entries returns the live entries, worst (slowest) first.
func (l *SlowLog) Entries() []*SlowEntry {
	if l == nil {
		return nil
	}
	out := make([]*SlowEntry, 0, len(l.entries))
	for i := range l.entries {
		if e := l.entries[i].Load(); e != nil {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].DurationMS > out[b].DurationMS })
	return out
}

// ServeHTTP serves the ring as JSON: {"count": N, "slow": [worst → ...]}.
func (l *SlowLog) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	entries := l.Entries()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]any{"count": len(entries), "slow": entries})
}
