package obs

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"
)

// Field is one key/value attribute on a trace event.
type Field struct {
	Key   string
	Value any
}

// F builds a Field.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// Event is one structured trace event: a named occurrence inside a
// span, with attributes. The feedback pipeline emits one span per
// feedback round whose events record every classification decision,
// merge accept/reject and the final cluster count.
type Event struct {
	// Span is the name of the enclosing span ("" for free events).
	Span string
	// Name is the event name, e.g. "classify.assign" or "merge.accept".
	Name string
	// Time is when the event was emitted.
	Time time.Time
	// Fields are the event attributes.
	Fields []Field
}

// Field returns the value of the named field (nil when absent).
func (e Event) Field(key string) any {
	for _, f := range e.Fields {
		if f.Key == key {
			return f.Value
		}
	}
	return nil
}

// Sink receives trace events. Implementations must be safe for
// concurrent use. A nil Sink disables tracing: StartSpan returns a nil
// span whose methods are no-ops, so the instrumented code pays only a
// nil check.
type Sink interface {
	Emit(e Event)
}

// Span is a named scope grouping the events of one logical operation
// (e.g. one feedback round). All methods are safe on a nil receiver —
// the disabled-tracing fast path.
type Span struct {
	sink  Sink
	name  string
	start time.Time
}

// StartSpan opens a span on the sink, emitting a "start" event. A nil
// sink returns a nil span (all methods no-op, nothing allocated).
func StartSpan(sink Sink, name string, fields ...Field) *Span {
	if sink == nil {
		return nil
	}
	s := &Span{sink: sink, name: name, start: time.Now()}
	sink.Emit(Event{Span: name, Name: "start", Time: s.start, Fields: fields})
	return s
}

// Enabled reports whether the span records events — hot loops should
// guard field construction with it.
func (s *Span) Enabled() bool { return s != nil }

// Event emits a named event inside the span.
func (s *Span) Event(name string, fields ...Field) {
	if s == nil {
		return
	}
	s.sink.Emit(Event{Span: s.name, Name: name, Time: time.Now(), Fields: fields})
}

// End closes the span, emitting an "end" event carrying the given
// fields plus the elapsed wall-clock milliseconds as "elapsed_ms".
func (s *Span) End(fields ...Field) {
	if s == nil {
		return
	}
	now := time.Now()
	fields = append(fields, F("elapsed_ms", float64(now.Sub(s.start))/1e6))
	s.sink.Emit(Event{Span: s.name, Name: "end", Time: now, Fields: fields})
}

// EmitEvent sends a free (span-less) event to the sink. A nil sink is
// a no-op.
func EmitEvent(sink Sink, name string, fields ...Field) {
	if sink == nil {
		return
	}
	sink.Emit(Event{Name: name, Time: time.Now(), Fields: fields})
}

// SlogSink forwards trace events to a log/slog logger as structured
// records: the span and event names become the "span" and "event"
// attributes, fields pass through as-is.
type SlogSink struct {
	log   *slog.Logger
	level slog.Level
}

// NewSlogSink builds a sink logging at LevelInfo; a nil logger uses
// slog.Default().
func NewSlogSink(l *slog.Logger) *SlogSink {
	if l == nil {
		l = slog.Default()
	}
	return &SlogSink{log: l, level: slog.LevelInfo}
}

// Emit implements Sink.
func (s *SlogSink) Emit(e Event) {
	attrs := make([]any, 0, 2+len(e.Fields))
	attrs = append(attrs, slog.String("span", e.Span))
	for _, f := range e.Fields {
		attrs = append(attrs, slog.Any(f.Key, f.Value))
	}
	s.log.Log(context.Background(), s.level, e.Name, attrs...)
}

// MemorySink collects events in memory — the collection backend for
// tests and offline analysis. Safe for concurrent use.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Sink.
func (m *MemorySink) Emit(e Event) {
	m.mu.Lock()
	m.events = append(m.events, e)
	m.mu.Unlock()
}

// Events returns a copy of the collected events in emission order.
func (m *MemorySink) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.events...)
}

// Count returns the number of events named name (any span).
func (m *MemorySink) Count(name string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, e := range m.events {
		if e.Name == name {
			n++
		}
	}
	return n
}

// String renders the collected events one per line (debugging aid).
func (m *MemorySink) String() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := ""
	for _, e := range m.events {
		out += fmt.Sprintf("%s/%s %v\n", e.Span, e.Name, e.Fields)
	}
	return out
}
