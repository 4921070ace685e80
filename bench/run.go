package main

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// runConfig is what one workload run needs from the command line.
type runConfig struct {
	qserveBin string
	workDir   string // scratch directory for this process, inside the checkout
	outDir    string // where <workload>.trace.jsonl goes
	seed      int64
	seconds   float64
	trace     bool
}

// setupReps is how many times a run boots qserve on the collection it
// built before measuring; setup_s is the build plus the median boot. The
// last boot is the one the sessions run against.
const setupReps = 3

// runResult is one workload run.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Sessions  int                `json:"sessions"`
	Attempted int                `json:"attempted"` // HTTP requests + oracle page checks
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// BlockP50MS is the median session of each one-second block of the
	// measured phase, in run order: where the host disturbed the run.
	BlockP50MS []float64 `json:"block_p50_ms"`
	// StreamDigest is the SHA-256 of the measured request stream up to the
	// quality prefix: equal digests mean byte-identical inputs.
	StreamDigest string `json:"stream_digest"`

	// ServerGOMAXPROCS is qserve's own account of itself in /healthz: 1 on
	// a oneCPU workload, the box's CPUs otherwise.
	ServerGOMAXPROCS int `json:"server_gomaxprocs"`

	commit string // qserve's embedded VCS revision, for the result file's header
}

// instance is one qserve and the directory it keeps its files in.
type instance struct {
	dir  string
	proc *serverProc
}

// close stops qserve and removes the instance's files.
func (in *instance) close() error {
	err := in.proc.stop()
	if rmErr := os.RemoveAll(in.dir); err == nil {
		err = rmErr
	}
	return err
}

// boot starts qserve on the collection c in a fresh directory. On a oneCPU
// workload it leaves the process pinned, so that qserve and the client
// that follows share that CPU; the caller unpins.
func boot(w workload, cfg runConfig, tag string, c *corpus, extraArgs ...string) (*instance, error) {
	dir := filepath.Join(cfg.workDir, w.name+"-"+tag)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if w.oneCPU {
		if err := pinToOneCPU(); err != nil {
			return nil, err
		}
	}
	args := append([]string(nil), c.serverArgs...)
	if w.shards > 0 {
		args = append(args, "-shards", strconv.Itoa(w.shards))
	}
	if w.durable {
		args = append(args, "-data", filepath.Join(dir, "data"))
	}
	proc, err := startServer(cfg.qserveBin, append(args, extraArgs...))
	if err != nil {
		return nil, err
	}
	return &instance{dir: dir, proc: proc}, nil
}

// phase is the outcome of driving sessions against one server.
type phase struct {
	records  []sessionRecord
	blocks   []block
	wall     time.Duration
	requests int
	failures int
	digest   string  // request stream up to the quality prefix
	heapMiB  float64 // qserve's live heap at the end of the quality prefix
	err      error   // the first failed reading of qserve's CPU time or heap
}

// blockSeconds is the length of the stretches the measured phase is cut
// into. The host slows this guest down for seconds at a time (README,
// "Measured noise"); a block is short enough to fall between two such
// spells and long enough to hold a few dozen sessions of every workload.
const blockSeconds = 1.0

// block is one stretch of the measured phase: whole sessions, back to back.
type block struct {
	first, end int           // records[first:end]
	wall       time.Duration // first session's start → last session's end
	serverCPU  float64       // qserve utime+stime spent meanwhile, seconds
}

// quietSessions is how many sessions the quiet sample must hold. Every
// number taken over it is a median or a rate, and fifty sessions place a
// median well inside what the host does to it.
const quietSessions = 50

// quietBlocks picks the blocks whose median session was shortest, as few
// as hold quietSessions sessions between them (one block of corel_*, two
// of mix16_* on the box this was written on). Interference only ever adds
// time, so these are the blocks that say most about the program and least
// about the neighbours, and the fewer of them a run needs, the more of it
// the host may disturb; every timing metric is taken over their sessions.
func quietBlocks(recs []sessionRecord, blocks []block) []block {
	median := func(b block) float64 {
		wall, _ := pooled(recs[b.first:b.end])
		return percentile(msOf(wall), 50)
	}
	ranked := append([]block(nil), blocks...)
	sort.SliceStable(ranked, func(i, j int) bool { return median(ranked[i]) < median(ranked[j]) })
	sessions := 0
	for i, b := range ranked {
		if sessions += b.end - b.first; sessions >= quietSessions {
			return ranked[:i+1]
		}
	}
	return ranked
}

// onOneThread runs f with the harness held to one running thread. The
// load generator always runs so: one closed-loop client needs no more,
// and a second thread only competes with qserve for the box's few CPUs.
func onOneThread(f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
}

// warmUp plays the workload's discarded warm-up sessions.
func warmUp(d *driver) (elapsed time.Duration, requests, failures int) {
	start := time.Now()
	for i := 0; i < d.w.warmup; i++ {
		rec := d.session(false)
		requests += rec.requests
		failures += rec.failures
	}
	d.digest.Reset()
	return time.Since(start), requests, failures
}

// measure plays sessions from this one goroutine until the deadline, or
// for exactly limit sessions when limit > 0. There is one client on
// purpose: on two shared cores a second closed-loop client made throughput
// swing by a tenth between runs (README, "Measured noise"). Between
// sessions it reads d.proc's CPU time at every block boundary and its live
// heap at the end of the quality prefix — a fixed session count, because on
// the durable workload the store, and the heap with it, grows with every
// session the machine manages to complete.
func measure(d *driver, seconds float64, limit int) phase {
	var ph phase
	readCPU := func() (cpu float64) {
		if d.proc != nil && ph.err == nil {
			cpu, ph.err = d.proc.cpuSeconds()
		}
		return cpu
	}
	endOfPrefix := func() {
		ph.digest = hex.EncodeToString(d.digest.Sum(nil))
		if d.proc != nil && ph.err == nil {
			ph.heapMiB, ph.err = d.proc.liveHeapMiB()
		}
	}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	cur, curStart, curCPU := block{}, start, readCPU()
	for i := 0; ; i++ {
		now := time.Now()
		if now.Sub(curStart).Seconds() >= blockSeconds {
			cpu := readCPU()
			cur.end, cur.wall, cur.serverCPU = i, now.Sub(curStart), cpu-curCPU
			ph.blocks = append(ph.blocks, cur)
			cur, curStart, curCPU = block{first: i}, now, cpu
		}
		if limit > 0 && i >= limit || limit <= 0 && !now.Before(deadline) {
			break
		}
		if i == d.w.quality {
			endOfPrefix()
		}
		rec := d.session(i%d.w.checkEvery == 0)
		ph.requests += rec.requests
		ph.failures += rec.failures
		ph.records = append(ph.records, rec)
	}
	ph.wall = time.Since(start)
	// What is left is shorter than a block: it joins the last one, or is
	// the only one.
	if n := len(ph.records); cur.first < n {
		cur.end, cur.wall, cur.serverCPU = n, time.Since(curStart), readCPU()-curCPU
		if last := len(ph.blocks) - 1; last >= 0 {
			ph.blocks[last].end = n
			ph.blocks[last].wall += cur.wall
			ph.blocks[last].serverCPU += cur.serverCPU
		} else {
			ph.blocks = append(ph.blocks, cur)
		}
	}
	if ph.digest == "" {
		endOfPrefix()
	}
	return ph
}

func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// timed is everything read around the measured phase.
type timed struct {
	ph                   phase
	warmup               time.Duration
	c                    *corpus
	boots                []float64 // every boot of the run, seconds
	serverCPU, selfCPU   float64
	rssMiB               float64
	opsBefore, opsAfter  opsSnapshot
	connections          int64
	checkedPages, badPgs int
}

// runWorkload performs one complete run of w: the build, the boots, the
// warm-up, the timed phase with tracing off, the oracle check and — when
// cfg.trace — the layer pass.
func runWorkload(w workload, cfg runConfig) (res runResult, err error) {
	res = runResult{Workload: w.name, Seed: cfg.seed}
	var t timed

	// The collection is built once, on every CPU the harness has.
	corpusDir := filepath.Join(cfg.workDir, w.name+"-corpus")
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		return res, err
	}
	defer os.RemoveAll(corpusDir)
	c, err := buildCorpus(w, corpusDir)
	if err != nil {
		return res, err
	}
	var inst *instance
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			err, inst = inst.close(), nil
			if err != nil {
				return res, err
			}
		}
		if inst, err = boot(w, cfg, "boot"+strconv.Itoa(i), c); err != nil {
			return res, err
		}
		t.boots = append(t.boots, inst.proc.bootSeconds)
	}
	defer func() {
		if cerr := inst.close(); err == nil {
			err = cerr
		}
		if uerr := unpin(); err == nil {
			err = uerr
		}
	}()
	proc := inst.proc
	t.c = c
	res.ServerGOMAXPROCS, res.commit = proc.gomaxprocs, proc.commit

	client := newTCPClient(proc.addr)
	defer client.close()
	d := newDriver(w, c, cfg.seed, client)
	d.proc = proc
	var warmReq, warmFail int
	onOneThread(func() { t.warmup, warmReq, warmFail = warmUp(d) })

	if t.opsBefore, err = proc.scrape(); err != nil {
		return res, err
	}
	self0 := selfCPUSeconds()
	onOneThread(func() { t.ph = measure(d, cfg.seconds, w.maxSessions) })
	t.selfCPU = selfCPUSeconds() - self0
	if t.ph.err != nil {
		return res, t.ph.err
	}
	for _, b := range t.ph.blocks {
		t.serverCPU += b.serverCPU
	}
	if t.opsAfter, err = proc.scrape(); err != nil {
		return res, err
	}
	if t.rssMiB, err = proc.peakRSSMiB(); err != nil {
		return res, err
	}
	t.connections = client.dials.Load()
	if len(t.ph.records) == 0 {
		return res, fmt.Errorf("%s: no session completed in %.1fs", w.name, cfg.seconds)
	}

	// Answer check, after timing: every kept session against the oracle.
	for _, rec := range t.ph.records {
		if rec.pages[feedbackRounds] == nil {
			continue // not kept, or cut short by a failure already counted
		}
		bad, err := checkSession(w, c, rec)
		if err != nil {
			return res, err
		}
		t.checkedPages += feedbackRounds + 1
		t.badPgs += bad
	}

	res.Sessions = len(t.ph.records)
	res.Attempted = warmReq + t.ph.requests + t.checkedPages
	res.Failed = warmFail + t.ph.failures + t.badPgs
	res.StreamDigest = t.ph.digest
	for _, b := range t.ph.blocks {
		wall, _ := pooled(t.ph.records[b.first:b.end])
		res.BlockP50MS = append(res.BlockP50MS, percentile(msOf(wall), 50))
	}
	res.EndToEnd = endToEndMetrics(w, t)
	if cfg.trace {
		res.PerLayer = timedLayerMetrics(w, t)
		// The traced pass boots its own qserve.
		if err := proc.stop(); err != nil {
			return res, err
		}
		if err := layerPass(w, cfg, c, t, res.PerLayer); err != nil {
			return res, err
		}
	}
	return res, nil
}

// qualityPrefix is the records the quality and count metrics cover.
func qualityPrefix(w workload, recs []sessionRecord) []sessionRecord {
	return recs[:min(w.quality, len(recs))]
}

// pooled gathers the timed phase's samples: each session's wall clock and
// every request's round trip by kind.
func pooled(recs []sessionRecord) (wall []time.Duration, byKind [numKinds][]time.Duration) {
	for _, r := range recs {
		wall = append(wall, r.wall)
		for kind := range byKind {
			byKind[kind] = append(byKind[kind], r.request[kind]...)
		}
	}
	return wall, byKind
}

func sum(ds []time.Duration) (total time.Duration) {
	for _, d := range ds {
		total += d
	}
	return total
}

// quietSample is the sessions of the phase's quiet blocks, with the wall
// clock and qserve CPU time those blocks took.
func quietSample(ph phase) (recs []sessionRecord, wall time.Duration, serverCPU float64) {
	for _, b := range quietBlocks(ph.records, ph.blocks) {
		recs = append(recs, ph.records[b.first:b.end]...)
		wall += b.wall
		serverCPU += b.serverCPU
	}
	return recs, wall, serverCPU
}

// endToEndMetrics takes the timings over the quiet sample and quality and
// memory over what they always covered: the fixed prefix, the whole run.
func endToEndMetrics(w workload, t timed) map[string]float64 {
	recs, quietWall, quietCPU := quietSample(t.ph)
	wall, byKind := pooled(recs)
	var first []time.Duration
	for _, r := range recs {
		if len(r.request[kindCreate]) == 1 && len(r.request[kindResultsR0]) == 1 {
			first = append(first, r.request[kindCreate][0]+r.request[kindResultsR0][0])
		}
	}
	refine, feedback := byKind[kindResultsRefined], byKind[kindFeedback]
	var hits float64
	q := qualityPrefix(w, t.ph.records)
	for _, r := range q {
		hits += float64(r.hits[feedbackRounds])
	}
	n := float64(len(recs))
	return map[string]float64{
		"setup_s":                   t.c.buildSeconds + percentile(t.boots, 50),
		"session_p50_ms":            percentile(msOf(wall), 50),
		"first_results_p50_ms":      percentile(msOf(first), 50),
		"refine_p50_ms":             percentile(msOf(refine), 50),
		"feedback_p50_ms":           percentile(msOf(feedback), 50),
		"sessions_per_s":            n / quietWall.Seconds(),
		"server_cpu_ms_per_session": quietCPU * 1e3 / n,
		"precision_at_100_final":    hits / float64(k*len(q)),
		"server_heap_mb":            t.ph.heapMiB,
	}
}

// timedLayerMetrics fills in every per-layer metric (0 by default) and
// computes the ones that come from the timed phase: client round trips,
// ops-port counter deltas, process readings and the quality curve.
func timedLayerMetrics(w workload, t timed) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, spec := range perLayer {
		m[spec.name] = 0
	}
	recs := t.ph.records
	n := float64(len(recs))

	// Round-trip medians over the quiet sample, like the end-to-end timings
	// they decompose; tail and shares over the whole run, where a stall the
	// quiet sample leaves out still shows.
	quiet, _, _ := quietSample(t.ph)
	_, quietKind := pooled(quiet)
	p50 := func(kind reqKind) float64 { return percentile(msOf(quietKind[kind]), 50) }
	wall, byKind := pooled(recs)
	var requestSum time.Duration
	for _, ds := range byKind {
		requestSum += sum(ds)
	}
	m["client.sessions"] = n
	m["client.blocks"] = float64(len(t.ph.blocks))
	m["client.quiet_sessions"] = float64(len(quiet))
	m["client.whole_run_session_p50_ms"] = percentile(msOf(wall), 50)
	m["client.create_p50_ms"] = p50(kindCreate)
	m["client.results_r0_p50_ms"] = p50(kindResultsR0)
	m["client.results_refined_p50_ms"] = p50(kindResultsRefined)
	m["client.feedback_p50_ms"] = p50(kindFeedback)
	m["client.delete_p50_ms"] = p50(kindDelete)
	m["durable.http_ack_p50_ms"] = p50(kindIngest)
	m["client.requests_p50_sum_ms"] = p50(kindCreate) + p50(kindResultsR0) +
		feedbackRounds*(p50(kindResultsRefined)+p50(kindFeedback)) + p50(kindDelete) + p50(kindIngest)
	m["client.requests_share_of_session"] = float64(requestSum) / float64(sum(wall))
	tail := highestPercentile(len(recs))
	m["client.session_tail_pct"] = tail
	m["client.session_tail_ms"] = percentile(msOf(wall), tail)
	m["client.warmup_s"] = t.warmup.Seconds()

	m["dataset.build_s"] = t.c.buildSeconds
	m["qserve.boot_s"] = percentile(t.boots, 50)
	m["qserve.cpu_s"] = t.serverCPU
	m["qserve.gc_cycles"] = t.opsAfter.numGC - t.opsBefore.numGC
	m["qserve.alloc_kb_per_session"] = (t.opsAfter.allocB - t.opsBefore.allocB) / 1024 / n
	m["qserve.rss_hwm_mb"] = t.rssMiB
	m["harness.cpu_s"] = t.selfCPU
	m["harness.connections"] = float64(t.connections)

	d := func(name string) float64 { return delta(t.opsBefore, t.opsAfter, name) }
	m["server.busy_s"] = d("server_request_latency_seconds_sum")
	m["server.requests"] = d("server_requests")
	m["server.queue_wait_s"] = d("server_queue_wait_seconds_sum")
	m["server.shed"] = d("server_shed")
	m["server.errors_5xx"] = d("server_errors_5xx")
	m["index.cache_seed_leaves_per_search"] = ratio(d("index_cache_seed_leaves"), d("search_total"))
	m["index.resplits"] = d("index_resplits")
	m["index.resplit_pending"] = t.opsAfter.metrics["qcluster_index_resplit_pending"]
	m["wal.fsyncs"] = d("wal_fsyncs")
	m["wal.fsync_mean_us"] = 1e6 * ratio(d("wal_fsync_seconds_sum"), d("wal_fsync_seconds_count"))
	m["wal.append_mean_us"] = 1e6 * ratio(d("wal_append_seconds_sum"), d("wal_append_seconds_count"))
	m["wal.bytes_per_vector"] = ratio(d("wal_bytes"), d("ingest_acked"))
	m["wal.rotations"] = d("wal_rotations")

	q := qualityPrefix(w, recs)
	var hits [feedbackRounds + 1]float64
	var recall, points, degraded float64
	for _, r := range q {
		for round, h := range r.hits {
			hits[round] += float64(h)
		}
		recall += ratio(float64(r.hits[feedbackRounds]), float64(r.categorySize))
		points += float64(r.queryPoints)
		degraded += float64(r.degraded)
	}
	for round, h := range hits {
		m["rf.precision_at_100.r"+strconv.Itoa(round)] = h / float64(k*len(q))
	}
	m["rf.recall_final"] = recall / float64(len(q))
	m["rf.quality_sessions"] = float64(len(q))
	m["rf.oracle_checked_pages"] = float64(t.checkedPages)
	m["cluster.query_points_final"] = points / float64(len(q))
	m["core.degraded_share"] = degraded / float64((feedbackRounds+1)*len(q))
	return m
}
