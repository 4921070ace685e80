package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"image"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	qcluster "repro"
	"repro/internal/distance"
	"repro/internal/feature"
	"repro/internal/imagegen"
	"repro/internal/index"
	"repro/internal/linalg"
	"repro/internal/server"
	"repro/internal/shard"
)

// Sample sizes of the layer pass. They bound its run time; every number
// they produce is a median or a per-vector mean, so they need not grow
// with the run length.
const (
	layerShare      = 10  // the pass replays 1/layerShare of the measured sessions
	layerMinimum    = 20  // ... but at least this many
	scanSessions    = 16  // sessions whose final metric gets a LinearScan
	sweepSessions   = 8   // sessions whose metrics get a full-store Eval sweep
	renderedSamples = 200 // images rendered and featurized one by one
)

// layerPass is the traced run: it re-drives a qserve restarted with its
// own tracing on, then replays the same sessions in-process with a span
// around every call into a layer, fills m with the per-layer metrics and
// writes the spans to <outDir>/<workload>.trace.jsonl.
func layerPass(w workload, cfg runConfig, c *corpus, t timed, m map[string]float64) error {
	n := min(max(len(t.ph.records)/layerShare, layerMinimum), len(t.ph.records))
	rec := newSpanRecorder()
	if err := tracedDrive(w, cfg, c, t, n, rec, m); err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	// The replay gets the CPUs qserve had, because the library sizes its
	// search workers by GOMAXPROCS as qserve's copy of it did: one CPU and
	// one thread on a oneCPU workload (still pinned from the traced boot),
	// all of them otherwise.
	var err error
	replay := func() { err = inProcess(w, cfg, c, n, rec, m) }
	if w.oneCPU {
		onOneThread(replay)
	} else {
		replay()
	}
	if err != nil {
		return fmt.Errorf("in-process replay: %w", err)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	return rec.writeJSONL(filepath.Join(cfg.outDir, w.name+".trace.jsonl"))
}

// p50us is the median length, in µs, of the spans with the given name.
func p50us(rec *spanRecorder, name string) float64 {
	return percentile(usOf(rec.durations(name)), 50)
}

// tracedDrive boots qserve with -trace-sample 1 -trace-log, plays the
// warm-up and the first n sessions of the same seed with one client span
// per request, and reads qserve's own stage spans back from the log.
func tracedDrive(w workload, cfg runConfig, c *corpus, t timed, n int, rec *spanRecorder, m map[string]float64) (err error) {
	c.reset()
	logPath := filepath.Join(cfg.workDir, w.name+"-trace.log")
	defer os.Remove(logPath)
	inst, err := boot(w, cfg, "traced", c, "-trace-sample", "1", "-trace-log", logPath)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := inst.close(); err == nil {
			err = cerr
		}
	}()
	client := newTCPClient(inst.proc.addr)
	defer client.close()
	d := newDriver(w, c, cfg.seed, client)
	onOneThread(func() { warmUp(d) })
	// qserve appends to the log, so truncating it here drops the warm-up's
	// spans and leaves exactly the n sessions below.
	if err := os.Truncate(logPath, 0); err != nil {
		return err
	}
	d.spans = rec
	var ph phase
	onOneThread(func() { ph = measure(d, 0, n) })
	if ph.failures > 0 {
		return fmt.Errorf("%d of %d traced requests failed", ph.failures, ph.requests)
	}
	if err := inst.proc.stop(); err != nil {
		return err
	}
	ts, err := readTraceLog(logPath)
	if err != nil {
		return err
	}
	if ts.requests != ph.requests {
		return fmt.Errorf("trace log holds %d request spans, the client sent %d", ts.requests, ph.requests)
	}

	for _, stage := range qcluster.StageNames() {
		m["obs.stage_"+stage+"_us"] = 1e3 * ts.stageMS[stage] / float64(ts.requests)
	}
	var stageSum float64
	for _, ms := range ts.stageMS {
		stageSum += ms
	}
	m["obs.stage_sum_over_handler_ratio"] = ratio(stageSum, ts.requestMS)
	traced, _ := pooled(ph.records)
	untraced, _ := pooled(t.ph.records)
	m["obs.trace_overhead_ratio"] = ratio(percentile(msOf(traced), 50), percentile(msOf(untraced), 50))
	m["index.leaves_visited_per_search"] = ratio(ts.leaves, float64(ts.searches))
	m["index.prune_ratio"] = ratio(ts.prune, float64(ts.searches))
	m["distance.evals_per_search"] = ratio(ts.evals, float64(ts.searches))
	m["distance.abandoned_share"] = ratio(ts.abandoned, ts.evals)

	var think time.Duration
	self := selfTimes(rec.spans)
	for i, s := range rec.spans {
		if s.Name == "client.session" {
			think += self[i]
		}
	}
	m["client.think_us_per_session"] = float64(think) / 1e3 / float64(n)
	return nil
}

// traceStats sums what qserve's trace log says about a set of requests.
type traceStats struct {
	requests  int                // root request spans
	requestMS float64            // their total length
	stageMS   map[string]float64 // total length per stage child span
	searches  int                // session.results requests
	leaves    float64
	evals     float64
	abandoned float64
	prune     float64 // sum of per-search prune ratios
}

// readTraceLog parses the JSON lines qserve's -trace-log sink writes. It
// uses the "end" events only: a root span's carries the request's length
// and search counters, a stage child's ("request.<route>.<stage>") that
// stage's length.
func readTraceLog(path string) (traceStats, error) {
	ts := traceStats{stageMS: make(map[string]float64)}
	stages := make(map[string]bool)
	for _, s := range qcluster.StageNames() {
		stages[s] = true
	}
	f, err := os.Open(path)
	if err != nil {
		return ts, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		var e struct {
			Event     string  `json:"event"`
			Span      string  `json:"span"`
			Root      bool    `json:"root"`
			ElapsedMS float64 `json:"elapsed_ms"`
			Leaves    float64 `json:"leaves_visited"`
			Evals     float64 `json:"distance_evals"`
			Abandoned float64 `json:"abandoned_evals"`
			Prune     float64 `json:"prune_ratio"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return ts, fmt.Errorf("trace log line %q: %w", sc.Text(), err)
		}
		if e.Event != "end" || !strings.HasPrefix(e.Span, "request.") {
			continue
		}
		if e.Root {
			ts.requests++
			ts.requestMS += e.ElapsedMS
			if e.Span == "request.session.results" {
				ts.searches++
				ts.leaves += e.Leaves
				ts.evals += e.Evals
				ts.abandoned += e.Abandoned
				ts.prune += e.Prune
			}
			continue
		}
		if stage := e.Span[strings.LastIndexByte(e.Span, '.')+1:]; stages[stage] {
			ts.stageMS[stage] += e.ElapsedMS
		}
	}
	return ts, sc.Err()
}

// liveSession is the part of a feedback session the replay drives; the
// root package's Session and internal/shard's both provide it.
type liveSession interface {
	ResultsContext(ctx context.Context, k int) ([]qcluster.Result, error)
	MarkRelevant(points []qcluster.Point) error
}

// backend is one in-process store the replay opens sessions on. name
// prefixes its spans.
type backend struct {
	name       string
	newSession func(example []float64, opt qcluster.Options) liveSession
	add        func(vecs [][]float64) ([]int, error)
}

// replayed is one in-process session's inputs, kept so the layers below
// the session can be driven with exactly what it saw.
type replayed struct {
	queryID int
	marks   [feedbackRounds][]qcluster.Point
	ingest  [][]float64
}

// replay plays the warm-up (untraced) and then n sessions of the seed
// against be, marking each page with the oracle as the HTTP client does.
func replay(w workload, c *corpus, seed int64, n int, be backend, rec *spanRecorder) ([]replayed, error) {
	in := newStream(seed, c)
	opt := schemeOptions(w.scheme)
	ctx := context.Background()
	var out []replayed
	for i := 0; i < w.warmup+n; i++ {
		spans := rec
		if i < w.warmup {
			spans = nil
		}
		r := replayed{queryID: in.nextQuery()}
		cat := c.labels[r.queryID]
		root := spans.start(be.name+".session", noSpan, r.queryID)
		var sess liveSession
		spans.timed(be.name+".NewSession", root, r.queryID, func() { sess = be.newSession(c.vectors[r.queryID], opt) })
		for round := 0; round <= feedbackRounds; round++ {
			name := be.name + ".ResultsContext.refined"
			if round == 0 {
				name = be.name + ".ResultsContext.r0"
			}
			var page []qcluster.Result
			var err error
			spans.timed(name, root, r.queryID, func() { page, err = sess.ResultsContext(ctx, k) })
			if err != nil {
				return nil, fmt.Errorf("%s: query %d round %d: %w", be.name, r.queryID, round, err)
			}
			if round == feedbackRounds {
				break
			}
			if w.durable && be.add != nil && round == ingestAfterRound {
				r.ingest = in.nextIngest(cat)
				spans.timed("durable.AddBatch", root, r.queryID, func() { _, err = be.add(r.ingest) })
				if err != nil {
					return nil, fmt.Errorf("%s: ingest: %w", be.name, err)
				}
				c.append(r.ingest, cat)
			}
			for _, res := range page {
				if s := c.oracle.Score(cat, res.ID); s > 0 {
					r.marks[round] = append(r.marks[round], qcluster.Point{ID: res.ID, Vec: c.vectors[res.ID], Score: s})
				}
			}
			spans.timed(be.name+".MarkRelevant", root, r.queryID, func() { err = sess.MarkRelevant(r.marks[round]) })
			if err != nil {
				return nil, fmt.Errorf("%s: query %d feedback %d: %w", be.name, r.queryID, round, err)
			}
		}
		spans.end(root)
		if i >= w.warmup {
			out = append(out, r)
		}
	}
	return out, nil
}

// handlerDoer sends requests straight into a Server.Handler(): the same
// bytes as the TCP client, without a socket.
type handlerDoer struct{ h http.Handler }

func (hd handlerDoer) do(_ reqKind, method, path string, body []byte, out any) (int, time.Duration, error) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rr := httptest.NewRecorder()
	start := time.Now()
	hd.h.ServeHTTP(rr, req)
	elapsed := time.Since(start)
	return rr.Code, elapsed, decodeReply(rr.Code, rr.Body.Bytes(), out)
}

// inProcess replays the same sessions without qserve: through the root
// package's Session, then layer by layer beneath it (query model, index,
// distance kernels), through the server's handler without TCP, and on
// the workloads that use them through a shard set and a durable
// database. Every call into a layer is one span in rec.
func inProcess(w workload, cfg runConfig, c *corpus, n int, rec *spanRecorder, m map[string]float64) error {
	c.reset()
	base := c.vectors[:c.base:c.base]

	// qcluster: the root package's database and session.
	var db *qcluster.Database
	be := backend{name: "qcluster"}
	var ingestor server.Ingestor
	if w.durable {
		dir := filepath.Join(cfg.workDir, w.name+"-inprocess")
		defer os.RemoveAll(dir)
		var dd *qcluster.DurableDatabase
		var err error
		rec.timed("durable.OpenDatabase", noSpan, -1, func() {
			dd, err = qcluster.OpenDatabase(dir, qcluster.DurableOptions{Seed: base})
		})
		if err != nil {
			return err
		}
		defer dd.Close()
		db, be.add, ingestor = dd.Database, dd.AddBatch, dd
		m["durable.boot_s"] = p50us(rec, "durable.OpenDatabase") / 1e6
	} else {
		var err error
		if db, err = qcluster.NewDatabase(base); err != nil {
			return err
		}
	}
	be.newSession = func(example []float64, opt qcluster.Options) liveSession { return db.NewSession(example, opt) }
	sessions, err := replay(w, c, cfg.seed, n, be, rec)
	if err != nil {
		return err
	}
	m["qcluster.results_r0_us"] = p50us(rec, "qcluster.ResultsContext.r0")
	m["qcluster.results_refined_us"] = p50us(rec, "qcluster.ResultsContext.refined")
	m["qcluster.feedback_us"] = p50us(rec, "qcluster.MarkRelevant")
	m["durable.add_ack_us"] = p50us(rec, "durable.AddBatch")

	// shard: the same sessions on an in-process scatter-gather set.
	var set *shard.Set
	if w.shards > 0 {
		if set, err = shard.New(base, w.shards, qcluster.IndexOptions{}); err != nil {
			return err
		}
		defer set.Close()
		sb := backend{name: "shard", newSession: func(example []float64, opt qcluster.Options) liveSession {
			return set.NewSession(example, opt)
		}}
		if _, err := replay(w, c, cfg.seed, n, sb, rec); err != nil {
			return err
		}
		m["shard.results_us"] = p50us(rec, "shard.ResultsContext.refined")
		m["shard.over_unsharded_ratio"] = ratio(m["shard.results_us"], m["qcluster.results_refined_us"])
	}

	// server: the same requests through the handler, no TCP. It serves the
	// store the replays above left behind, which c mirrors — the shard set
	// on a sharded workload, as qserve would.
	var srv *server.Server
	if set != nil {
		srv = server.NewSharded(set, server.Options{})
	} else {
		srv = server.New(db, server.Options{Ingestor: ingestor})
	}
	hd := newDriver(w, c, cfg.seed, handlerDoer{srv.Handler()})
	hd.prefix = "server.handler"
	warmUp(hd)
	hd.spans = rec
	ph := measure(hd, 0, n)
	if err := srv.Close(); err != nil {
		return err
	}
	if ph.failures > 0 {
		return fmt.Errorf("%d of %d handler requests failed", ph.failures, ph.requests)
	}
	m["server.handler_create_us"] = p50us(rec, "server.handler.create")
	m["server.handler_results_us"] = p50us(rec, "server.handler.results_refined")
	m["server.handler_feedback_us"] = p50us(rec, "server.handler.feedback")
	m["server.transport_us"] = m["client.results_refined_p50_ms"]*1e3 - m["server.handler_results_us"]

	// core: the query model alone, and the metrics it hands the index.
	opt := schemeOptions(w.scheme)
	type models struct {
		rounds     [feedbackRounds + 1]distance.Metric // what each page was searched with
		diag, full distance.Metric                     // round-5 metric under either scheme
	}
	mods := make([]models, len(sessions))
	for i, s := range sessions {
		example := c.vectors[s.queryID]
		q := qcluster.NewQuery(opt)
		qd := qcluster.NewQuery(qcluster.Options{Scheme: qcluster.Diagonal})
		qf := qcluster.NewQuery(qcluster.Options{Scheme: qcluster.FullInverse})
		mods[i].rounds[0] = qcluster.EuclideanMetric(example)
		for round, marks := range s.marks {
			var err error
			rec.timed("core.Feedback", noSpan, s.queryID, func() { err = q.Feedback(marks) })
			if err == nil {
				err = qd.Feedback(marks)
			}
			if err == nil {
				err = qf.Feedback(marks)
			}
			if err != nil {
				return err
			}
			mods[i].rounds[round+1] = q.Metric()
		}
		mods[i].diag, mods[i].full = qd.Metric(), qf.Metric()
	}
	m["core.feedback_us"] = p50us(rec, "core.Feedback")

	// index: tree build, stateless and cached k-NN, the flat baseline.
	vecs := make([]linalg.Vector, len(base))
	for i, v := range base {
		vecs[i] = v
	}
	store, err := index.NewStore(vecs)
	if err != nil {
		return err
	}
	var tree *index.HybridTree
	rec.timed("index.NewHybridTree", noSpan, -1, func() { tree = index.NewHybridTree(store, index.TreeOptions{}) })
	m["index.build_s"] = p50us(rec, "index.NewHybridTree") / 1e6
	scan := index.NewLinearScan(store)
	for i, s := range sessions {
		final := mods[i].rounds[feedbackRounds]
		rec.timed("index.KNN", noSpan, s.queryID, func() { tree.KNN(final, k) })
		cached := index.NewRefinementSearcher(tree)
		cached.KNN(mods[i].rounds[0], k)
		for _, metric := range mods[i].rounds[1:] {
			rec.timed("index.KNNCached", noSpan, s.queryID, func() { cached.KNN(metric, k) })
		}
		if i < scanSessions {
			rec.timed("index.LinearScan", noSpan, s.queryID, func() { scan.KNN(final, k) })
		}
	}
	m["index.knn_us"] = p50us(rec, "index.KNN")
	m["index.knn_cached_us"] = p50us(rec, "index.KNNCached")
	m["index.linear_scan_us"] = p50us(rec, "index.LinearScan")

	// distance: the kernels swept over the whole flat store.
	flat, dim, count := store.Flat(), store.Dim(), store.Len()
	out := make([]float64, count)
	var sink float64
	for i, s := range sessions[:min(sweepSessions, len(sessions))] {
		for _, kern := range []struct {
			name   string
			metric distance.Metric
		}{
			{"euclidean", mods[i].rounds[0]},
			{"diag", mods[i].diag},
			{"full", mods[i].full},
		} {
			rec.timed("distance.Eval."+kern.name, noSpan, s.queryID, func() {
				for id := 0; id < count; id++ {
					sink += kern.metric.Eval(store.Vector(id))
				}
			})
			if bm, ok := kern.metric.(distance.BatchMetric); ok {
				rec.timed("distance.EvalBatch."+kern.name, noSpan, s.queryID, func() {
					bm.EvalBatch(flat, dim, math.Inf(1), out)
				})
			}
		}
	}
	if math.IsNaN(sink) {
		return fmt.Errorf("distance sweep produced NaN")
	}
	perVector := func(name string) float64 { return 1e3 * p50us(rec, name) / float64(count) }
	m["distance.eval_ns.euclidean"] = perVector("distance.Eval.euclidean")
	m["distance.eval_ns.diag"] = perVector("distance.Eval.diag")
	m["distance.eval_ns.full"] = perVector("distance.Eval.full")
	m["distance.evalbatch_ns.diag"] = perVector("distance.EvalBatch.diag")
	m["distance.evalbatch_ns.full"] = perVector("distance.EvalBatch.full")

	// index maintenance: the replayed ingests, appended and inserted one
	// vector at a time (after the searches, which ran on the base tree).
	for _, s := range sessions {
		for _, v := range s.ingest {
			var err error
			rec.timed("index.Insert", noSpan, s.queryID, func() {
				var id int
				if id, err = store.Append(v); err == nil {
					tree.Insert(id)
				}
			})
			if err != nil {
				return err
			}
		}
	}
	m["index.insert_us_per_vector"] = p50us(rec, "index.Insert")

	// imagegen, feature: what dataset.Build spends per image.
	if w.corel != nil {
		col := imagegen.NewCollection(corelConfig(*w.corel))
		step := max(col.NumImages()/renderedSamples, 1)
		for id := 0; id < col.NumImages(); id += step {
			var img *image.RGBA
			rec.timed("imagegen.Render", noSpan, -1, func() { img = col.Render(id) })
			rec.timed("feature.ColorMoments", noSpan, -1, func() { feature.ColorMoments(img) })
			rec.timed("feature.TextureFeatures", noSpan, -1, func() { feature.TextureFeatures(img) })
		}
		m["imagegen.render_us_per_image"] = p50us(rec, "imagegen.Render")
		m["feature.color_us_per_image"] = p50us(rec, "feature.ColorMoments")
		m["feature.texture_us_per_image"] = p50us(rec, "feature.TextureFeatures")
	}
	return nil
}
