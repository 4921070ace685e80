package main

// metricSpec names one reported number. BENCHMARK.json restates these
// tables for the driver; TestBenchmarkJSONMatchesTables keeps them equal.
type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the base median it may worsen by
}

// endToEnd are the numbers a user of qserve sees, measured client-side
// with tracing off. The timings (session_p50_ms … server_cpu_ms_per_session)
// are taken over the quiet sample: the sessions of the run's one-second
// blocks whose median session was shortest, as few blocks as hold 50
// sessions (quietBlocks).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},                     // dataset.Build + qserve exec until /healthz is ok; median of the run's set-ups; excludes go build and warm-up
	{"session_p50_ms", "ms", "lower", 0.25},             // create → delete wall clock of one 5-round feedback session, median
	{"first_results_p50_ms", "ms", "lower", 0.25},       // create + round-0 page: time to the first page (Euclidean k-NN, cold cache), median
	{"refine_p50_ms", "ms", "lower", 0.25},              // one refined results call, rounds 1–5 pooled, median
	{"feedback_p50_ms", "ms", "lower", 0.25},            // one feedback call (Algorithms 2–3; the metric is rebuilt by the next search), median
	{"sessions_per_s", "1/s", "higher", 0.25},           // quiet sample's sessions / its blocks' wall clock, one closed-loop user
	{"server_cpu_ms_per_session", "ms", "lower", 0.25},  // qserve utime+stime over the quiet sample's blocks / its sessions; shows wall bought with the second core
	{"precision_at_100_final", "ratio", "higher", 0.10}, // mean same-category share of the round-5 page over the fixed quality prefix
	{"server_heap_mb", "MiB", "lower", 0.10},            // qserve's live Go heap at the end of the quality prefix (collection forced through the ops port)
}

// perLayer are the single-layer numbers of the traced pass; layer names
// are the repository's package names. A metric that does not apply to a
// workload reads 0 there.
var perLayer = []metricSpec{
	// dataset, imagegen, feature (+ pca inside dataset.Build)
	{name: "dataset.build_s", unit: "s", better: "lower"},               // dataset.Build (render + features + PCA) + snapshot write; 0 on mix16_*
	{name: "imagegen.render_us_per_image", unit: "us", better: "lower"}, // Collection.Render, median of 200 images
	{name: "feature.color_us_per_image", unit: "us", better: "lower"},   // feature.ColorMoments, median of 200 images
	{name: "feature.texture_us_per_image", unit: "us", better: "lower"}, // feature.TextureFeatures, median of 200 images
	// the qserve process and the harness beside it
	{name: "qserve.boot_s", unit: "s", better: "lower"},                 // qserve exec → /healthz ok (load or generate vectors, build index, listen)
	{name: "qserve.cpu_s", unit: "s", better: "lower"},                  // qserve utime+stime over the measured phase
	{name: "qserve.gc_cycles", unit: "count", better: "lower"},          // GC cycles over the measured phase (/debug/vars num_gc)
	{name: "qserve.alloc_kb_per_session", unit: "KiB", better: "lower"}, // bytes allocated over the measured phase / sessions (/debug/vars total_alloc)
	{name: "qserve.rss_hwm_mb", unit: "MiB", better: "lower"},           // qserve VmHWM at the end of the measured phase (the issue's server_rss_mb: it swings with collector timing at boot, so it is not gated)
	{name: "harness.cpu_s", unit: "s", better: "lower"},                 // load generator utime+stime over the measured phase
	{name: "harness.connections", unit: "count", better: "lower"},       // TCP connections the load generator opened (1 = keep-alive held)
	// client: HTTP round trips of the timed phase
	{name: "client.sessions", unit: "count", better: "higher"},                  // sessions measured
	{name: "client.blocks", unit: "count", better: "higher"},                    // one-second blocks the measured phase was cut into
	{name: "client.quiet_sessions", unit: "count", better: "higher"},            // sessions in the quiet blocks: the sample behind the end-to-end timings and the client.*_p50_ms below
	{name: "client.whole_run_session_p50_ms", unit: "ms", better: "lower"},      // session median over every measured session; its gap to session_p50_ms is what the quiet sample left out (host interference, or a stall that comes and goes)
	{name: "client.create_p50_ms", unit: "ms", better: "lower"},                 // POST /v1/sessions round trip
	{name: "client.results_r0_p50_ms", unit: "ms", better: "lower"},             // round-0 results round trip
	{name: "client.results_refined_p50_ms", unit: "ms", better: "lower"},        // refined results round trip
	{name: "client.feedback_p50_ms", unit: "ms", better: "lower"},               // feedback round trip
	{name: "client.delete_p50_ms", unit: "ms", better: "lower"},                 // DELETE round trip
	{name: "client.requests_p50_sum_ms", unit: "ms", better: "lower"},           // create + r0 + 5 refined + 5 feedback + delete (+ ingest) medians; below session_p50_ms because medians of skewed times do not add
	{name: "client.requests_share_of_session", unit: "ratio", better: "higher"}, // time inside the 13 requests / session wall, all sessions summed: the rest is client think time
	{name: "client.think_us_per_session", unit: "us", better: "lower"},          // self time of the client.session span in the traced pass: marking pages and building requests (decoding replies is inside the request spans)
	{name: "client.session_tail_ms", unit: "ms", better: "lower"},               // session wall over the whole run at the highest percentile with >= 10 samples beyond it (the issue's session_p90_ms and better: p95 on mix16_*, p99 on corel_*; not gated, because the tail is where the host's interference lands)
	{name: "client.session_tail_pct", unit: "%", better: "higher"},              // which percentile client.session_tail_ms is
	{name: "client.warmup_s", unit: "s", better: "lower"},                       // wall clock of the discarded warm-up sessions
	// server: the HTTP layer around the root package
	{name: "server.handler_create_us", unit: "us", better: "lower"},   // the same create requests through Server.Handler() with httptest, no TCP, median
	{name: "server.handler_results_us", unit: "us", better: "lower"},  // refined results through Server.Handler(), median
	{name: "server.handler_feedback_us", unit: "us", better: "lower"}, // feedback through Server.Handler(), median
	{name: "server.transport_us", unit: "us", better: "lower"},        // client refined-results median minus the handler's: TCP, net/http, scheduling
	{name: "server.busy_s", unit: "s", better: "lower"},               // sum of qserve's request latencies over the measured phase
	{name: "server.requests", unit: "count", better: "higher"},        // requests qserve counted over the measured phase
	{name: "server.queue_wait_s", unit: "s", better: "lower"},         // admission queue wait summed over the measured phase
	{name: "server.shed", unit: "count", better: "lower"},             // requests shed with 429
	{name: "server.errors_5xx", unit: "count", better: "lower"},       // 5xx responses
	// obs: the program's own stage budget, from -trace-sample 1 -trace-log
	{name: "obs.stage_queue_us", unit: "us", better: "lower"},                   // mean per request of the traced pass
	{name: "obs.stage_lock_us", unit: "us", better: "lower"},                    // mean per request
	{name: "obs.stage_search_us", unit: "us", better: "lower"},                  // mean per request
	{name: "obs.stage_merge_us", unit: "us", better: "lower"},                   // mean per request (sharded only)
	{name: "obs.stage_feedback_us", unit: "us", better: "lower"},                // mean per request
	{name: "obs.stage_encode_us", unit: "us", better: "lower"},                  // mean per request
	{name: "obs.stage_resplit_us", unit: "us", better: "lower"},                 // mean per request (ingest only)
	{name: "obs.stage_sum_over_handler_ratio", unit: "ratio", better: "higher"}, // sum of stage spans / sum of request spans: how much of a request the stages explain
	{name: "obs.trace_overhead_ratio", unit: "ratio", better: "lower"},          // traced / untraced session_p50_ms
	// qcluster: the root package's Session, in-process
	{name: "qcluster.results_r0_us", unit: "us", better: "lower"},      // Session.ResultsContext before feedback, median
	{name: "qcluster.results_refined_us", unit: "us", better: "lower"}, // Session.ResultsContext rounds 1–5, median
	{name: "qcluster.feedback_us", unit: "us", better: "lower"},        // Session.MarkRelevant, median
	// core, cluster, classify
	{name: "core.feedback_us", unit: "us", better: "lower"},              // Query.Feedback alone on the replayed marks, median
	{name: "cluster.query_points_final", unit: "count", better: "lower"}, // mean cluster representatives behind the round-5 page, quality prefix
	{name: "core.degraded_share", unit: "ratio", better: "lower"},        // pages served from a regularized covariance / pages, quality prefix
	// index
	{name: "index.build_s", unit: "s", better: "lower"},                           // index.NewHybridTree over the base collection
	{name: "index.knn_us", unit: "us", better: "lower"},                           // HybridTree.KNN with the round-5 metric, stateless, median
	{name: "index.knn_cached_us", unit: "us", better: "lower"},                    // RefinementSearcher.KNN rounds 1–5 (cross-round leaf cache), median
	{name: "index.linear_scan_us", unit: "us", better: "lower"},                   // LinearScan.KNN with the round-5 metric: the flat baseline row
	{name: "index.leaves_visited_per_search", unit: "count", better: "lower"},     // traced pass, results requests
	{name: "index.prune_ratio", unit: "ratio", better: "higher"},                  // traced pass, mean over results requests
	{name: "index.cache_seed_leaves_per_search", unit: "count", better: "higher"}, // leaves re-evaluated from the refinement cache / searches (ops counters; 0 when sharded: shards are not on the ops port)
	{name: "index.insert_us_per_vector", unit: "us", better: "lower"},             // Store.Append + HybridTree.Insert of the replayed ingests, median (durable only)
	{name: "index.resplits", unit: "count", better: "lower"},                      // leaf re-splits over the measured phase (ops counter)
	{name: "index.resplit_pending", unit: "count", better: "lower"},               // deferred re-splits outstanding at the end of the measured phase
	// distance, linalg
	{name: "distance.eval_ns.euclidean", unit: "ns", better: "lower"},   // scalar Eval swept over the flat store, per vector
	{name: "distance.eval_ns.diag", unit: "ns", better: "lower"},        // scalar Eval of replayed round-5 diagonal metrics, per vector
	{name: "distance.eval_ns.full", unit: "ns", better: "lower"},        // scalar Eval of replayed round-5 full-inverse metrics, per vector
	{name: "distance.evalbatch_ns.diag", unit: "ns", better: "lower"},   // EvalBatch, bound +Inf, per vector
	{name: "distance.evalbatch_ns.full", unit: "ns", better: "lower"},   // EvalBatch, bound +Inf, per vector
	{name: "distance.evals_per_search", unit: "count", better: "lower"}, // traced pass, results requests
	{name: "distance.abandoned_share", unit: "ratio", better: "higher"}, // evaluations the kernels cut short / evaluations, traced pass
	// shard
	{name: "shard.results_us", unit: "us", better: "lower"},              // 2-shard Set session ResultsContext rounds 1–5, in-process, median (mix16_sharded only)
	{name: "shard.over_unsharded_ratio", unit: "ratio", better: "lower"}, // shard.results_us / qcluster.results_refined_us, same queries
	// wal, durable
	{name: "durable.http_ack_p50_ms", unit: "ms", better: "lower"}, // POST /v1/vectors round trip of the timed phase (the issue's ingest_ack_p50_ms; per-layer because it exists on one workload)
	{name: "durable.add_ack_us", unit: "us", better: "lower"},      // DurableDatabase.AddBatch of 4 in-process: WAL append + fsync + insert, median
	{name: "durable.boot_s", unit: "s", better: "lower"},           // qcluster.OpenDatabase first boot: seed, snapshot, index
	{name: "wal.fsyncs", unit: "count", better: "lower"},           // fsyncs over the measured phase
	{name: "wal.fsync_mean_us", unit: "us", better: "lower"},       // wal.fsync_seconds sum / count over the measured phase
	{name: "wal.append_mean_us", unit: "us", better: "lower"},      // wal.append_seconds sum / count
	{name: "wal.bytes_per_vector", unit: "B", better: "lower"},     // WAL bytes / vectors ingested
	{name: "wal.rotations", unit: "count", better: "lower"},        // snapshot rotations over the measured phase
	// rf: quality, over the fixed quality prefix
	{name: "rf.precision_at_100.r0", unit: "ratio", better: "higher"},  // mean precision of the round-0 page
	{name: "rf.precision_at_100.r1", unit: "ratio", better: "higher"},  // round 1
	{name: "rf.precision_at_100.r2", unit: "ratio", better: "higher"},  // round 2
	{name: "rf.precision_at_100.r3", unit: "ratio", better: "higher"},  // round 3
	{name: "rf.precision_at_100.r4", unit: "ratio", better: "higher"},  // round 4
	{name: "rf.precision_at_100.r5", unit: "ratio", better: "higher"},  // round 5 (= precision_at_100_final)
	{name: "rf.recall_final", unit: "ratio", better: "higher"},         // round-5 same-category hits / category size
	{name: "rf.quality_sessions", unit: "count", better: "higher"},     // sessions the quality metrics cover (the fixed prefix, or fewer if the run was cut short)
	{name: "rf.oracle_checked_pages", unit: "count", better: "higher"}, // pages compared bit for bit with the linear-scan oracle
}
