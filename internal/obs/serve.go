package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/stat"
)

// DebugServer serves a Registry over HTTP for operational inspection:
//
//	/debug/vars    expvar-style JSON (the registry snapshot plus
//	               runtime gauges: goroutines, heap bytes, GC count and
//	               total pause)
//	/metrics       Prometheus text exposition format
//	/debug/pprof/  the standard net/http/pprof handlers
//
// It owns its listener and serve goroutine; Close shuts it down
// gracefully and does not return until the goroutine has exited, so a
// closed server leaks nothing (asserted by TestServeDebugNoLeak).
type DebugServer struct {
	srv  *http.Server
	lis  net.Listener
	done chan struct{}
}

// ServeDebug starts a debug server for one or more registries on addr
// (e.g. "localhost:6060"; ":0" picks a free port, see Addr). The server
// runs on its own goroutine until Close. Additional registries are
// merged into every exposition (a serving layer can mount its own
// metrics next to the database's); metric names must not collide across
// registries — on collision the later registry wins.
func ServeDebug(addr string, reg *Registry, more ...*Registry) (*DebugServer, error) {
	return ServeDebugWith(addr, nil, reg, more...)
}

// ServeDebugWith is ServeDebug with extra handlers mounted on the debug
// mux — the serving tier mounts its slow-query log at "/debug/slow".
// Extra patterns must not collide with the built-in ones.
func ServeDebugWith(addr string, extra map[string]http.Handler, reg *Registry, more ...*Registry) (*DebugServer, error) {
	if reg == nil {
		return nil, fmt.Errorf("obs: nil registry")
	}
	regs := append([]*Registry{reg}, more...)
	snapshot := func() Snapshot {
		s := regs[0].Snapshot()
		for _, r := range regs[1:] {
			if r == nil {
				continue
			}
			s.Merge(r.Snapshot())
		}
		// The χ²/F critical-value cache is process-wide (internal/stat), so
		// it is reported here and not by any one registry.
		qc := stat.ReadQuantileCacheStats()
		s.Counters["stat.quantile_cache.hits"] = qc.Hits
		s.Counters["stat.quantile_cache.misses"] = qc.Misses
		s.Gauges["stat.quantile_cache.entries"] = float64(qc.Entries)
		return s
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		doc := map[string]any{
			"qcluster": snapshot(),
			"runtime": map[string]any{
				"goroutines":        runtime.NumGoroutine(),
				"heap_alloc":        ms.HeapAlloc,
				"total_alloc":       ms.TotalAlloc,
				"num_gc":            ms.NumGC,
				"gc_pause_total_ns": ms.PauseTotalNs,
				"gomaxprocs":        runtime.GOMAXPROCS(0),
				"uptime_seconds":    time.Since(startTime).Seconds(),
			},
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(PrometheusText(snapshot())))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for pattern, h := range extra {
		if h != nil {
			mux.Handle(pattern, h)
		}
	}

	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	d := &DebugServer{
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		lis:  lis,
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		_ = d.srv.Serve(lis) // returns http.ErrServerClosed on Shutdown
	}()
	return d, nil
}

var startTime = time.Now()

// Addr returns the bound listen address (useful with ":0").
func (d *DebugServer) Addr() string { return d.lis.Addr().String() }

// Close gracefully shuts the server down and waits for the serve
// goroutine to exit.
func (d *DebugServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	<-d.done
	return err
}

// PrometheusText renders a snapshot in the Prometheus text exposition
// format (version 0.0.4). Dotted metric names become underscore-joined
// ("search.latency_seconds" → "qcluster_search_latency_seconds");
// histograms expose the standard _bucket/_sum/_count triple with
// cumulative le labels.
func PrometheusText(s Snapshot) string {
	var b strings.Builder
	for _, name := range sortedKeys(s.Counters) {
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %g\n", pn, pn, s.Gauges[name])
	}
	hnames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := s.Histograms[name]
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", pn)
		var cum int64
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(h.Bounds) {
				le = fmt.Sprintf("%g", h.Bounds[i])
			}
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", pn, le, cum)
		}
		fmt.Fprintf(&b, "%s_sum %g\n%s_count %d\n", pn, h.Sum, pn, h.Count)
	}
	return b.String()
}

func promName(name string) string {
	return "qcluster_" + strings.NewReplacer(".", "_", "-", "_").Replace(name)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
