package obs

import (
	"bytes"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

func TestSpanEmitsStartEventsEnd(t *testing.T) {
	sink := &MemorySink{}
	span := StartSpan(sink, "round", F("round", 1))
	if !span.Enabled() {
		t.Fatal("span with sink should be enabled")
	}
	span.Event("classify.assign", F("cluster", 0))
	span.End(F("clusters", 2))

	evs := sink.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3: %s", len(evs), sink)
	}
	if evs[0].Name != "start" || evs[0].Span != "round" {
		t.Fatalf("first event = %s/%s", evs[0].Span, evs[0].Name)
	}
	if evs[0].Field("round") != 1 {
		t.Fatalf("start round field = %v", evs[0].Field("round"))
	}
	if evs[1].Name != "classify.assign" || evs[1].Field("cluster") != 0 {
		t.Fatalf("middle event wrong: %+v", evs[1])
	}
	end := evs[2]
	if end.Name != "end" || end.Field("clusters") != 2 {
		t.Fatalf("end event wrong: %+v", end)
	}
	if end.Field("elapsed_ms") == nil {
		t.Fatal("end event missing elapsed_ms")
	}
	if end.Field("missing") != nil {
		t.Fatal("absent field should be nil")
	}
}

func TestNilSinkIsNoOpAndAllocationFree(t *testing.T) {
	span := StartSpan(nil, "round")
	if span != nil {
		t.Fatal("nil sink should yield nil span")
	}
	if span.Enabled() {
		t.Fatal("nil span should report disabled")
	}
	// None of these may panic.
	span.Event("x", F("a", 1))
	span.End()
	EmitEvent(nil, "free")

	if n := testing.AllocsPerRun(1000, func() {
		s := StartSpan(nil, "round")
		if s.Enabled() {
			s.Event("never")
		}
		s.End()
		EmitEvent(nil, "free")
	}); n != 0 {
		t.Fatalf("disabled tracing allocates %v/op, want 0", n)
	}
}

func TestEmitEventFree(t *testing.T) {
	sink := &MemorySink{}
	EmitEvent(sink, "metric.build", F("clusters", 3))
	evs := sink.Events()
	if len(evs) != 1 || evs[0].Span != "" || evs[0].Name != "metric.build" {
		t.Fatalf("free event wrong: %+v", evs)
	}
	if evs[0].Field("clusters") != 3 {
		t.Fatalf("field = %v", evs[0].Field("clusters"))
	}
}

func TestMemorySinkConcurrentAndDrain(t *testing.T) {
	sink := &MemorySink{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sink.Emit(Event{Name: "e"})
			}
		}()
	}
	wg.Wait()
	if got := sink.Count("e"); got != 800 {
		t.Fatalf("count = %d, want 800", got)
	}
	if got := len(sink.Events()); got != 800 {
		t.Fatalf("events = %d, want 800", got)
	}
}

func TestSlogSink(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	sink := NewSlogSink(logger)
	span := StartSpan(sink, "feedback.round", F("round", 2))
	span.Event("merge.accept", F("t2", 1.5))
	span.End()

	out := buf.String()
	for _, want := range []string{
		"msg=start", "span=feedback.round", "round=2",
		"msg=merge.accept", "t2=1.5", "msg=end", "elapsed_ms=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("slog output missing %q:\n%s", want, out)
		}
	}
}

func TestNewSlogSinkNilLoggerUsesDefault(t *testing.T) {
	if NewSlogSink(nil) == nil {
		t.Fatal("nil logger should still yield a sink")
	}
}
