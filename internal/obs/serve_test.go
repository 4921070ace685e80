package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/stat"
)

func newTestServer(t *testing.T) (*Registry, *DebugServer) {
	t.Helper()
	reg := NewRegistry()
	reg.Counter("search.total").Add(7)
	reg.Gauge("db.items").Set(42)
	h := reg.Histogram("search.latency_seconds", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(0.5)
	d, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("ServeDebug: %v", err)
	}
	return reg, d
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServeDebugVars(t *testing.T) {
	_, d := newTestServer(t)
	defer d.Close()
	code, body := get(t, "http://"+d.Addr()+"/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var doc struct {
		Qcluster Snapshot       `json:"qcluster"`
		Runtime  map[string]any `json:"runtime"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("vars not JSON: %v\n%s", err, body)
	}
	if doc.Qcluster.Counters["search.total"] != 7 {
		t.Fatalf("search.total = %d, want 7", doc.Qcluster.Counters["search.total"])
	}
	if doc.Qcluster.Gauges["db.items"] != 42 {
		t.Fatalf("db.items = %v, want 42", doc.Qcluster.Gauges["db.items"])
	}
	for _, key := range []string{"goroutines", "num_gc", "gc_pause_total_ns"} {
		if doc.Runtime[key] == nil {
			t.Fatalf("runtime.%s missing", key)
		}
	}
	// The process-wide critical-value cache is reported with every
	// registry: one χ² quantile asked twice is two lookups (a miss and a
	// hit the first time the test runs in a process) and an entry.
	lookups := func(s Snapshot) int64 {
		return s.Counters["stat.quantile_cache.hits"] + s.Counters["stat.quantile_cache.misses"]
	}
	stat.ChiSquareQuantile(0.95, 4321)
	stat.ChiSquareQuantile(0.95, 4321)
	var after struct {
		Qcluster Snapshot `json:"qcluster"`
	}
	_, body = get(t, "http://"+d.Addr()+"/debug/vars")
	if err := json.Unmarshal([]byte(body), &after); err != nil {
		t.Fatal(err)
	}
	if got := lookups(after.Qcluster) - lookups(doc.Qcluster); got != 2 {
		t.Errorf("stat.quantile_cache.hits+misses moved by %d, want 2", got)
	}
	if after.Qcluster.Counters["stat.quantile_cache.hits"] == doc.Qcluster.Counters["stat.quantile_cache.hits"] {
		t.Error("stat.quantile_cache.hits did not move on a repeated quantile")
	}
	if after.Qcluster.Gauges["stat.quantile_cache.entries"] < 1 {
		t.Errorf("stat.quantile_cache.entries = %v", after.Qcluster.Gauges["stat.quantile_cache.entries"])
	}
}

func TestServeDebugPrometheus(t *testing.T) {
	_, d := newTestServer(t)
	defer d.Close()
	code, body := get(t, "http://"+d.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{
		"# TYPE qcluster_search_total counter",
		"qcluster_search_total 7",
		"# TYPE qcluster_db_items gauge",
		"qcluster_db_items 42",
		"# TYPE qcluster_search_latency_seconds histogram",
		`qcluster_search_latency_seconds_bucket{le="0.001"} 1`,
		`qcluster_search_latency_seconds_bucket{le="0.01"} 2`,
		`qcluster_search_latency_seconds_bucket{le="+Inf"} 3`,
		"qcluster_search_latency_seconds_count 3",
		"# TYPE qcluster_stat_quantile_cache_hits counter",
		"# TYPE qcluster_stat_quantile_cache_misses counter",
		"# TYPE qcluster_stat_quantile_cache_entries gauge",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestServeDebugPprof(t *testing.T) {
	_, d := newTestServer(t)
	defer d.Close()
	code, body := get(t, "http://"+d.Addr()+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("pprof index status = %d", code)
	}
	if !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index unexpected:\n%s", body)
	}
}

func TestServeDebugNilRegistry(t *testing.T) {
	if _, err := ServeDebug("127.0.0.1:0", nil); err == nil {
		t.Fatal("nil registry should error")
	}
}

// TestServeDebugNoLeak is the CI goroutine-leak gate: after Close, the
// goroutine count must return to its pre-serve level (allowing the
// runtime a little settling time for HTTP keep-alive teardown).
func TestServeDebugNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		reg := NewRegistry()
		d, err := ServeDebug("127.0.0.1:0", reg)
		if err != nil {
			t.Fatalf("ServeDebug: %v", err)
		}
		if _, body := get(t, "http://"+d.Addr()+"/metrics"); body == "" {
			// /metrics on an empty registry renders nothing — that is fine;
			// the request only exists to exercise a live connection.
			_ = body
		}
		if err := d.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
