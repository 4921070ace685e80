package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	qcluster "repro"
	"repro/internal/obs"
)

// This file is the feedback loop's wire path: the results page, the
// stateless search page and the feedback ack are appended into a pooled
// buffer without reflection, and the marks body is parsed in one pass.
// Every byte written is what encoding/json would write for the same
// value. The marks parser's grammar is the feedback body's contract:
// every body it takes encoding/json takes too, to the same points.

// bufPool holds response and request-body buffers. A buffer grown past
// maxPooledBuf (a huge marks body) is dropped rather than pinned.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

const maxPooledBuf = 64 << 10

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(bp *[]byte, b []byte) {
	if cap(b) > maxPooledBuf {
		return
	}
	*bp = b[:0]
	bufPool.Put(bp)
}

// page is one results (session) or search (stateless) response body.
type page struct {
	results []qcluster.Result
	partial bool
	// session adds the query-model fields of a results page.
	session     bool
	refined     bool
	rounds      int
	queryPoints int
	degraded    bool
}

// writePage answers status with pg, charging the encode and write to
// the request's encode stage. A non-finite distance has no JSON form,
// so such a page is refused with a 500 before any header is written.
func writePage(ctx context.Context, w http.ResponseWriter, status int, pg *page) int {
	for _, r := range pg.results {
		if math.IsInf(r.Dist, 0) || math.IsNaN(r.Dist) {
			return fail(w, http.StatusInternalServerError, "result %d has a non-finite distance", r.ID)
		}
	}
	start := time.Now()
	bp := getBuf()
	b := appendPage(*bp, pg)
	writeBytes(ctx, w, status, b, start)
	putBuf(bp, b)
	return status
}

// writeAck answers 200 with a feedback ack.
func writeAck(ctx context.Context, w http.ResponseWriter, absorbed bool, rounds, queryPoints int) {
	start := time.Now()
	bp := getBuf()
	b := append(*bp, `{"absorbed":`...)
	b = strconv.AppendBool(b, absorbed)
	b = append(b, `,"rounds":`...)
	b = strconv.AppendInt(b, int64(rounds), 10)
	b = append(b, `,"query_points":`...)
	b = strconv.AppendInt(b, int64(queryPoints), 10)
	b = append(b, "}\n"...)
	writeBytes(ctx, w, http.StatusOK, b, start)
	putBuf(bp, b)
}

// writeBytes writes a finished JSON body the way writeJSON does and
// charges the time since start to the profile's encode stage.
func writeBytes(ctx context.Context, w http.ResponseWriter, status int, b []byte, start time.Time) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_, _ = w.Write(b)
	if p := obs.ProfileFromContext(ctx); p != nil {
		p.StageAt(obs.StageEncode, start, time.Since(start))
	}
}

func appendPage(b []byte, pg *page) []byte {
	b = append(b, `{"results":[`...)
	for i, r := range pg.results {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(r.ID), 10)
		b = append(b, `,"dist":`...)
		b = appendFloat(b, r.Dist)
		b = append(b, '}')
	}
	b = append(b, ']')
	if pg.partial {
		b = append(b, `,"partial":true`...)
	}
	if pg.session {
		b = append(b, `,"refined":`...)
		b = strconv.AppendBool(b, pg.refined)
		b = append(b, `,"rounds":`...)
		b = strconv.AppendInt(b, int64(pg.rounds), 10)
		b = append(b, `,"query_points":`...)
		b = strconv.AppendInt(b, int64(pg.queryPoints), 10)
		if pg.degraded {
			b = append(b, `,"degraded":true`...)
		}
	}
	return append(b, "}\n"...)
}

// appendFloat is encoding/json's float64 rule: shortest 'f' form, 'e'
// outside [1e-6, 1e21), with a one-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// decodeMarks reads a feedback body into req: the body is read once
// into a pooled buffer and parsed in place. A read error or a body
// outside parseMarks' grammar is a 400, the latter naming the byte where
// parsing stopped.
func decodeMarks(w http.ResponseWriter, r *http.Request, req *feedbackRequest) int {
	bp := getBuf()
	body, err := readAll(io.LimitReader(r.Body, maxBodyBytes), *bp)
	defer putBuf(bp, body)
	if err == nil {
		err = parseMarks(body, req)
	}
	if err != nil {
		return fail(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return 0
}

// readAll is io.ReadAll of a body into b's spare capacity. It doubles
// the buffer rather than growing it by append's quarter, and never past
// maxBodyBytes+1, the size at which the body's LimitReader reports EOF,
// so a body at the limit allocates about twice its length in all.
func readAll(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			nb := make([]byte, len(b), min(2*cap(b)+1, maxBodyBytes+1))
			copy(nb, b)
			b = nb
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
	}
}

// marksParser walks a marks body: {"points":[{"id":int,"score":number,
// "vector":[number,…]}…]} with any JSON whitespace and each key at most
// once, spelled exactly so: no escapes, no other case, no null. An int
// or a number is one encoding/json takes for an int or a float64. Every
// method reports false on anything else.
type marksParser struct {
	b []byte
	i int
}

// maxPrealloc caps a slice sized from a count of unparsed bytes; past
// it, append grows the slice as values actually parse.
const maxPrealloc = 1024

// parseMarks parses a marks body into req, or reports the byte where it
// left the grammar.
func parseMarks(body []byte, req *feedbackRequest) error {
	p := marksParser{b: body}
	if !p.eat('{') || !p.key(keyPoints) || !p.eat('[') {
		return p.refuse()
	}
	// Every point opens one brace, so this bounds a well-formed body's
	// slice exactly; maxPrealloc keeps a brace flood from sizing it.
	pts := make([]feedbackPoint, 0, min(max(bytes.Count(body, []byte{'{'})-1, 0), maxPrealloc))
	if !p.eat(']') {
		for {
			var pt feedbackPoint
			if !p.point(&pt) {
				return p.refuse()
			}
			pts = append(pts, pt)
			if p.eat(']') {
				break
			}
			if !p.eat(',') {
				return p.refuse()
			}
		}
	}
	if !p.eat('}') {
		return p.refuse()
	}
	p.space()
	if p.i != len(p.b) {
		return p.refuse()
	}
	req.Points = pts
	return nil
}

func (p *marksParser) refuse() error {
	return fmt.Errorf("not a marks body at byte %d", p.i)
}

func (p *marksParser) point(pt *feedbackPoint) bool {
	if !p.eat('{') {
		return false
	}
	if p.eat('}') {
		return true
	}
	var seenID, seenScore, seenVector bool
	for {
		var ok bool
		switch {
		case !seenID && p.key(keyID):
			seenID = true
			pt.ID, ok = p.integer()
		case !seenScore && p.key(keyScore):
			seenScore = true
			pt.Score, ok = p.number()
		case !seenVector && p.key(keyVector):
			seenVector = true
			pt.Vector, ok = p.vector()
		}
		if !ok {
			return false
		}
		if p.eat('}') {
			return true
		}
		if !p.eat(',') {
			return false
		}
	}
}

func (p *marksParser) vector() ([]float64, bool) {
	if !p.eat('[') {
		return nil, false
	}
	if p.eat(']') {
		return []float64{}, true
	}
	// A well-formed vector has one comma fewer than it has components.
	end := bytes.IndexByte(p.b[p.i:], ']')
	if end < 0 {
		return nil, false
	}
	v := make([]float64, 0, min(bytes.Count(p.b[p.i:p.i+end], []byte{','})+1, maxPrealloc))
	for {
		f, ok := p.number()
		if !ok {
			return nil, false
		}
		v = append(v, f)
		if p.eat(']') {
			return v, true
		}
		if !p.eat(',') {
			return nil, false
		}
	}
}

// space skips JSON whitespace.
func (p *marksParser) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c after optional whitespace.
func (p *marksParser) eat(c byte) bool {
	p.space()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// key consumes a quoted key (quotes included in k) and its colon. It
// matches bytes exactly, so an escaped or differently-cased key is
// refused.
func (p *marksParser) key(k []byte) bool {
	p.space()
	if !bytes.HasPrefix(p.b[p.i:], k) {
		return false
	}
	start := p.i
	if p.i += len(k); !p.eat(':') {
		p.i = start
		return false
	}
	return true
}

var (
	keyPoints = []byte(`"points"`)
	keyID     = []byte(`"id"`)
	keyScore  = []byte(`"score"`)
	keyVector = []byte(`"vector"`)
)

// literal consumes one JSON number after optional whitespace and
// returns its bytes and whether it is a plain integer (no fraction, no
// exponent).
func (p *marksParser) literal() (lit []byte, integer, ok bool) {
	p.space()
	start := p.i
	p.i += p.at('-')
	switch {
	case p.at('0') == 1:
		p.i++
	case p.digits() == 0:
		return nil, false, false
	}
	integer = true
	if p.at('.') == 1 {
		p.i++
		if p.digits() == 0 {
			return nil, false, false
		}
		integer = false
	}
	if p.at('e') == 1 || p.at('E') == 1 {
		p.i++
		if p.at('+') == 1 || p.at('-') == 1 {
			p.i++
		}
		if p.digits() == 0 {
			return nil, false, false
		}
		integer = false
	}
	return p.b[start:p.i], integer, true
}

// at reports 1 when the next byte is c.
func (p *marksParser) at(c byte) int {
	if p.i < len(p.b) && p.b[p.i] == c {
		return 1
	}
	return 0
}

// digits consumes a run of decimal digits and returns its length.
func (p *marksParser) digits() int {
	start := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

// integer parses an int literal.
func (p *marksParser) integer() (int, bool) {
	lit, integer, ok := p.literal()
	if !ok || !integer {
		return 0, false
	}
	if n, ok := atoi(lit); ok {
		return n, true
	}
	n, err := strconv.ParseInt(string(lit), 10, 0)
	return int(n), err == nil
}

// number parses a float64 literal. An integer literal converts exactly
// as strconv.ParseFloat would round it, so only a fraction or exponent
// (or an integer past atoi's range) goes through strconv.
func (p *marksParser) number() (float64, bool) {
	lit, integer, ok := p.literal()
	if !ok {
		return 0, false
	}
	if integer {
		if n, ok := atoi(lit); ok {
			if n == 0 && lit[0] == '-' {
				return math.Copysign(0, -1), true
			}
			return float64(n), true
		}
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// atoi converts a validated integer literal. Past 18 digits it could
// overflow, so it reports false and leaves the range check to strconv.
func atoi(lit []byte) (int, bool) {
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	if len(lit) > 18 {
		return 0, false
	}
	n := 0
	for _, c := range lit {
		n = n*10 + int(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}
