// Command qserve exposes a Qcluster retrieval database over HTTP: a
// stateless k-NN search endpoint, durable vector ingest, and
// multi-tenant relevance-feedback sessions, with admission control,
// per-request deadlines and graceful drain on SIGINT/SIGTERM (see
// internal/server for the API).
//
// With -data the collection lives in a durable directory: writes go
// through a write-ahead log (acknowledged only after fsync), the store
// snapshots atomically in the background, and a restart — graceful or
// kill-9 — boots warm from snapshot + WAL replay with every
// acknowledged write intact. A first boot seeds the directory from a
// cmd/qgen snapshot (-dataset) or a synthetic Gaussian mixture
// (-cats/-percat/-dim/-seed). Without -data the collection is
// memory-only:
//
//	qserve -addr :8080 -ops :8081 -data /var/lib/qserve
//	qserve -addr :8080 -cats 20 -percat 100 -dim 8          # ephemeral
//
// Endpoints (JSON):
//
//	POST   /v1/vectors                   durable ingest (single or batch)
//	POST   /v1/search                    stateless k-NN around an example
//	POST   /v1/sessions                  open a feedback session
//	GET    /v1/sessions/{id}/results     retrieve with the refined query
//	POST   /v1/sessions/{id}/feedback    mark relevant results
//	DELETE /v1/sessions/{id}             close a session
//	GET    /healthz                      liveness + capacity + durability
//
// A persistent disk error degrades the node to read-only: ingest
// returns 503, searches keep serving, and /healthz reports status
// "degraded" with the failure message.
//
// With -shards N the collection is partitioned into N scatter-gather
// shards (each run of 64 consecutive ids, one storage block, on one
// shard, round-robin): searches fan out to all shards under one shared
// k-th-best bound and merge bit-identically to the unsharded answer,
// and /healthz + /metrics carry per-shard blocks. Combined with -data,
// each shard keeps its own WAL directory under the data root, and the
// root records N: a root written with another N, or by a build that
// hashed ids to shards, is refused at boot. -parallelism sizes a swept
// search's workers.
//
// Every request is traced: qserve honors and propagates W3C
// traceparent headers, and -trace-sample exports span trees (admission
// queue, session lock, per-shard search legs, merge, encode) as JSON
// lines to -trace-log; requests slower than 250ms are always kept
// regardless of the sampling rate and fill the slow-query log served at
// /debug/slow on the ops port.
//
// Everything else — session capacity and TTL, admission, deadlines,
// WAL group commit and rotation — is a fixed constant (README "Fixed
// serving constants").
//
// The ops port (-ops) serves /debug/vars, /metrics (Prometheus text),
// /debug/slow and /debug/pprof with the server and database registries
// merged.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	qcluster "repro"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/synth"
)

func main() {
	var (
		addr = flag.String("addr", ":8080", "API listen address")
		ops  = flag.String("ops", "", "ops listen address for /metrics, /debug/vars, /debug/pprof (empty to disable)")

		// Durability.
		data = flag.String("data", "", "durable data directory: WAL + snapshots, warm restart (empty = memory-only)")

		// First-boot / memory-only collection: snapshot or synthetic mixture.
		datasetPath = flag.String("dataset", "", "seed collection from a cmd/qgen dataset snapshot (optional)")
		cats        = flag.Int("cats", 16, "synthetic mixture: number of categories")
		perCat      = flag.Int("percat", 100, "synthetic mixture: vectors per category")
		dim         = flag.Int("dim", 8, "synthetic mixture: dimensionality")
		seed        = flag.Int64("seed", 2003, "synthetic mixture: random seed")

		// Search.
		parallelism = flag.Int("parallelism", 0, "workers of a swept search, one the tree cannot prune (0 = GOMAXPROCS)")
		shards      = flag.Int("shards", 1, "partition the collection into N scatter-gather shards, bit-identical to unsharded (1 = unsharded)")

		// Tracing.
		traceSample = flag.Float64("trace-sample", 0, "head-sampling probability for span export, 0..1 (slow requests are always exported once a sink exists)")
		traceLog    = flag.String("trace-log", "", "span export destination: a JSON-lines file path, or '-' for stderr (implied stderr when -trace-sample > 0)")
	)
	flag.Parse()

	indexOpt := qcluster.IndexOptions{SearchParallelism: *parallelism}
	opt := server.Options{TraceSampleRate: *traceSample}
	if *traceLog != "" || *traceSample > 0 {
		var w io.Writer = os.Stderr
		if *traceLog != "" && *traceLog != "-" {
			f, err := os.OpenFile(*traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintf(os.Stderr, "opening trace log: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		opt.TraceSink = &traceSink{w: w}
	}

	var db *qcluster.Database
	var durable *qcluster.DurableDatabase
	var set *shard.Set
	if *shards > 1 {
		seedVecs, err := loadVectors(*datasetPath, *cats, *perCat, *dim, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *data != "" {
			set, err = shard.Open(*data, *shards, qcluster.DurableOptions{Index: indexOpt, Seed: seedVecs})
			if err != nil {
				fmt.Fprintf(os.Stderr, "opening sharded %s: %v\n", *data, err)
				os.Exit(1)
			}
			defer set.Close()
			fmt.Printf("durable sharded boot from %s: %d vectors, %d dims across %d shards\n",
				*data, set.Len(), set.Dim(), set.NumShards())
		} else {
			set, err = shard.New(seedVecs, *shards, indexOpt)
			if err != nil {
				fmt.Fprintf(os.Stderr, "building sharded set: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("sharded collection ready (memory-only): %d vectors, %d dims across %d shards\n",
				set.Len(), set.Dim(), set.NumShards())
		}
	} else if *data != "" {
		seedVecs, err := loadVectors(*datasetPath, *cats, *perCat, *dim, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		durable, err = qcluster.OpenDatabase(*data, qcluster.DurableOptions{Index: indexOpt, Seed: seedVecs})
		if err != nil {
			fmt.Fprintf(os.Stderr, "opening %s: %v\n", *data, err)
			os.Exit(1)
		}
		defer durable.Close()
		db = durable.Database
		opt.Ingestor = durable
		h := durable.Health()
		fmt.Printf("durable boot from %s: %d vectors, %d dims (replayed %d records / %d vectors, truncated %d torn bytes)\n",
			*data, h.Items, db.Dim(), h.ReplayedRecords, h.ReplayedVectors, h.TruncatedBytes)
	} else {
		vectors, err := loadVectors(*datasetPath, *cats, *perCat, *dim, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		db, err = qcluster.NewDatabaseWithOptions(vectors, indexOpt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "building database: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("collection ready (memory-only): %d vectors, %d dims\n", db.Len(), db.Dim())
	}

	// Installed before the listeners come up: a SIGTERM that lands right
	// after /healthz first answers must drain, not kill.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)

	var s *server.Server
	var err error
	if set != nil {
		s, err = server.StartSharded(*addr, set, opt)
	} else {
		s, err = server.Start(*addr, db, opt)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "starting server: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("serving on %s (GOMAXPROCS=%d)\n", s.Addr(), runtime.GOMAXPROCS(0))
	if *ops != "" {
		opsSrv, err := s.ServeOps(*ops)
		if err != nil {
			fmt.Fprintf(os.Stderr, "starting ops server: %v\n", err)
			os.Exit(1)
		}
		defer opsSrv.Close()
		fmt.Printf("ops on %s (/metrics, /debug/vars, /debug/pprof)\n", opsSrv.Addr())
	}

	got := <-sig
	fmt.Printf("%s: draining...\n", got)
	start := time.Now()
	if err := s.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "drain: %v\n", err)
		os.Exit(1)
	}
	if durable != nil {
		// Checkpoint so the next boot needs no replay; a failure here is
		// not data loss (the WAL already has everything), just a slower
		// restart.
		if err := durable.Checkpoint(); err != nil {
			fmt.Fprintf(os.Stderr, "final checkpoint: %v (next boot will replay the WAL)\n", err)
		}
	}
	if set != nil && set.Durable() {
		if err := set.Checkpoint(); err != nil {
			fmt.Fprintf(os.Stderr, "final checkpoint: %v (next boot will replay the WALs)\n", err)
		}
	}
	fmt.Printf("drained in %s\n", time.Since(start).Round(time.Millisecond))
}

// traceSink writes each span event as one self-contained JSON object
// per line — greppable by trace_id, tail-able, no collector required.
type traceSink struct {
	mu sync.Mutex
	w  io.Writer
}

// Emit implements obs.Sink.
func (s *traceSink) Emit(e obs.Event) {
	m := make(map[string]any, 3+len(e.Fields))
	m["ts"] = e.Time.Format(time.RFC3339Nano)
	m["span"] = e.Span
	m["event"] = e.Name
	for _, f := range e.Fields {
		m[f.Key] = f.Value
	}
	blob, err := json.Marshal(m)
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _ = s.w.Write(append(blob, '\n'))
}

// loadVectors reads a qgen snapshot (serving its color-moment feature
// space) or synthesizes a Gaussian mixture.
func loadVectors(path string, cats, perCat, dim int, seed int64) ([][]float64, error) {
	if path != "" {
		ds, err := dataset.LoadFile(path)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", path, err)
		}
		vecs := ds.Vectors(dataset.ColorMoments)
		out := make([][]float64, len(vecs))
		for i, v := range vecs {
			out[i] = v
		}
		return out, nil
	}
	vectors, _ := synth.Mixture[[]float64](rand.New(rand.NewSource(seed)), cats, perCat, dim, 5)
	return vectors, nil
}
