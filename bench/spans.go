package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// spanID indexes a span in its recorder; noSpan is "no parent" and also
// what a nil recorder hands out.
type spanID int

const noSpan spanID = -1

// span is one timed call the harness made into a layer. Spans of one
// session share its query id.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // since the recorder was created
	End     int64  `json:"end_ns"`
	Parent  spanID `json:"parent"`
	Session int    `json:"session"`
}

// spanRecorder keeps spans in memory and writes them out at the end of
// the run. A nil recorder records nothing, so timed phases run with
// tracing off by passing nil. It is used from one goroutine.
type spanRecorder struct {
	origin time.Time
	spans  []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{origin: time.Now()} }

func (r *spanRecorder) start(name string, parent spanID, session int) spanID {
	if r == nil {
		return noSpan
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.origin)), Parent: parent, Session: session})
	return spanID(len(r.spans) - 1)
}

func (r *spanRecorder) end(id spanID) {
	if r == nil || id == noSpan {
		return
	}
	r.spans[id].End = int64(time.Since(r.origin))
}

// timed records fn as one span.
func (r *spanRecorder) timed(name string, parent spanID, session int, fn func()) {
	id := r.start(name, parent, session)
	fn()
	r.end(id)
}

// durations returns the length of every span with the given name.
func (r *spanRecorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover. Overlapping children are
// counted once and a child is clipped to its parent's interval.
func selfTimes(spans []span) []time.Duration {
	children := make(map[spanID][]span)
	for _, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[spanID(i)]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, c := range kids {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// writeJSONL writes one span per line.
func (r *spanRecorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
