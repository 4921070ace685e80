package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// Wire types: the subset of internal/server's JSON the harness sends and
// reads. They are restated here because the harness talks to qserve as a
// client would, over HTTP only.
type (
	createReq struct {
		ExampleID int    `json:"example_id"`
		Scheme    string `json:"scheme"`
	}
	createResp struct {
		SessionID string `json:"session_id"`
	}
	resultItem struct {
		ID   int     `json:"id"`
		Dist float64 `json:"dist"`
	}
	resultsResp struct {
		Results     []resultItem `json:"results"`
		QueryPoints int          `json:"query_points"`
		Degraded    bool         `json:"degraded"`
	}
	feedbackPoint struct {
		ID    int     `json:"id"`
		Score float64 `json:"score"`
	}
	feedbackReq struct {
		Points []feedbackPoint `json:"points"`
	}
	vectorsReq struct {
		Vectors [][]float64 `json:"vectors"`
	}
	vectorsResp struct {
		IDs []int `json:"ids"`
	}
)

// doer carries one HTTP exchange; the TCP client and the in-process
// handler replay both implement it, so one session driver serves both.
type doer interface {
	// do sends the request and decodes a JSON reply into out (when out is
	// non-nil and the status is 2xx). It returns the status and the time
	// from just before the send to just after the body was read.
	do(kind reqKind, method, path string, body []byte, out any) (status int, elapsed time.Duration, err error)
}

// reqKind labels a request for timing and spans.
type reqKind int

const (
	kindCreate reqKind = iota
	kindResultsR0
	kindResultsRefined
	kindFeedback
	kindIngest
	kindDelete
	numKinds
)

var kindNames = [numKinds]string{"create", "results_r0", "results_refined", "feedback", "ingest", "delete"}

// tcpClient is the load generator's transport: one keep-alive connection
// to qserve, one request in flight.
type tcpClient struct {
	base  string
	hc    *http.Client
	dials atomic.Int64
}

func newTCPClient(addr string) *tcpClient {
	c := &tcpClient{base: "http://" + addr}
	dialer := &net.Dialer{}
	c.hc = &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, a string) (net.Conn, error) {
			c.dials.Add(1)
			return dialer.DialContext(ctx, network, a)
		},
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
	return c
}

func (c *tcpClient) close() { c.hc.CloseIdleConnections() }

func (c *tcpClient) do(_ reqKind, method, path string, body []byte, out any) (int, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, time.Since(start), err
	}
	// The whole body is read inside the timed interval: a page is only
	// useful once it has fully arrived, and draining it is what lets the
	// connection be reused.
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if err != nil {
		return resp.StatusCode, elapsed, err
	}
	return resp.StatusCode, elapsed, decodeReply(resp.StatusCode, raw, out)
}

func decodeReply(status int, raw []byte, out any) error {
	if out == nil || status < 200 || status > 299 {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("decoding %d-byte reply: %w", len(raw), err)
	}
	return nil
}

// sessionRecord is what one driven session leaves behind.
type sessionRecord struct {
	queryID  int
	category int

	wall    time.Duration                    // create start → delete end
	request [numKinds][]time.Duration        // per-request times by kind
	hits    [feedbackRounds + 1]int          // same-category results per page
	pages   [feedbackRounds + 1][]resultItem // kept for oracle-checked sessions only
	items   [feedbackRounds + 1]int          // store size when each page was served
	marks   [feedbackRounds][]feedbackPoint  // kept alongside pages

	categorySize int // same-category items in the store at the final page
	queryPoints  int // cluster representatives behind the final page
	degraded     int // pages served from a regularized covariance

	requests int // HTTP requests attempted
	failures int // non-2xx, 206 partial, transport or decode errors
}

// driver plays feedback sessions against a doer.
type driver struct {
	w    workload
	c    *corpus
	in   *stream
	conn doer
	// proc, when not nil, is the qserve the sessions run against; measure
	// reads its CPU time and heap between sessions.
	proc *serverProc
	// digest accumulates the request stream (method, path with the
	// server-chosen session id masked, body) so two runs can be compared
	// byte for byte.
	digest hash.Hash
	// spans, when non-nil, records one span per session and request, named
	// prefix.session and prefix.<request kind>.
	spans  *spanRecorder
	prefix string
}

func newDriver(w workload, c *corpus, seed int64, conn doer) *driver {
	return &driver{
		w: w, c: c, conn: conn,
		in:     newStream(seed, c),
		digest: sha256.New(),
		prefix: "client",
	}
}

// send issues one request, accounts for it in rec and the stream digest.
func (d *driver) send(rec *sessionRecord, parent spanID, kind reqKind, method, path, sid string, payload, out any) bool {
	var body []byte
	if payload != nil {
		var err error
		if body, err = json.Marshal(payload); err != nil {
			panic(err) // wire structs of ints, floats and strings always marshal
		}
	}
	masked := path
	if sid != "" {
		masked = strings.Replace(path, sid, "{id}", 1)
	}
	fmt.Fprintf(d.digest, "%s %s %d\n", method, masked, len(body))
	d.digest.Write(body)

	sp := d.spans.start(d.prefix+"."+kindNames[kind], parent, rec.queryID)
	status, elapsed, err := d.conn.do(kind, method, path, body, out)
	d.spans.end(sp)
	rec.requests++
	rec.request[kind] = append(rec.request[kind], elapsed)
	// 206 is a truncated page and 429 a shed request: both are answers the
	// user did not get, so they count as failures like any non-2xx.
	if err != nil || status < 200 || status > 299 || status == http.StatusPartialContent {
		rec.failures++
		return false
	}
	return true
}

// session drives one full feedback session: create, the round-0 page,
// feedbackRounds × (mark the page just seen, fetch the refined page),
// delete — 13 requests, plus one ingest on the durable workload. keep
// retains pages and marks for the oracle check.
func (d *driver) session(keep bool) (rec sessionRecord) {
	qid := d.in.nextQuery()
	rec = sessionRecord{queryID: qid, category: d.c.labels[qid]}
	root := d.spans.start(d.prefix+".session", noSpan, qid)
	start := time.Now()
	var sid, base string
	defer func() {
		if sid != "" {
			d.send(&rec, root, kindDelete, "DELETE", base, sid, nil, nil)
		}
		rec.wall = time.Since(start)
		d.spans.end(root)
	}()

	var created createResp
	if !d.send(&rec, root, kindCreate, "POST", "/v1/sessions", "", createReq{ExampleID: qid, Scheme: d.w.scheme}, &created) {
		return rec
	}
	sid = created.SessionID
	base = "/v1/sessions/" + sid

	for round := 0; round <= feedbackRounds; round++ {
		kind := kindResultsRefined
		if round == 0 {
			kind = kindResultsR0
		}
		var page resultsResp
		rec.items[round] = len(d.c.vectors)
		if !d.send(&rec, root, kind, "GET", fmt.Sprintf("%s/results?k=%d", base, k), sid, nil, &page) {
			return rec
		}
		if len(page.Results) != k {
			rec.failures++
			return rec
		}
		if page.Degraded {
			rec.degraded++
		}
		for _, r := range page.Results {
			if r.ID < 0 || r.ID >= len(d.c.labels) {
				rec.failures++
				return rec
			}
			if d.c.oracle.Relevant(rec.category, r.ID) {
				rec.hits[round]++
			}
		}
		if keep {
			rec.pages[round] = page.Results
		}
		if round == feedbackRounds {
			rec.queryPoints = page.QueryPoints
			rec.categorySize = d.c.catSize[rec.category]
			break
		}
		if d.w.durable && round == ingestAfterRound {
			vecs := d.in.nextIngest(rec.category)
			var ack vectorsResp
			if !d.send(&rec, root, kindIngest, "POST", "/v1/vectors", "", vectorsReq{Vectors: vecs}, &ack) {
				return rec
			}
			// The one client is the only writer, so ids continue the store.
			for i, id := range ack.IDs {
				if id != len(d.c.vectors)+i {
					rec.failures++
					return rec
				}
			}
			d.c.append(vecs, rec.category)
		}
		var fb feedbackReq
		for _, r := range page.Results {
			if s := d.c.oracle.Score(rec.category, r.ID); s > 0 {
				fb.Points = append(fb.Points, feedbackPoint{ID: r.ID, Score: s})
			}
		}
		if keep {
			rec.marks[round] = fb.Points
		}
		// A page with nothing relevant on it has nothing to mark (qserve
		// rejects an empty feedback body); the next page repeats the query.
		if len(fb.Points) > 0 && !d.send(&rec, root, kindFeedback, "POST", base+"/feedback", sid, fb, nil) {
			return rec
		}
	}
	return rec
}
