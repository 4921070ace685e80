package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	qcluster "repro"
)

// The reflection-encoded wire types the handlers wrote before wire.go:
// the byte reference for the typed path, and what tests decode into.

type resultItem struct {
	ID   int     `json:"id"`
	Dist float64 `json:"dist"`
}

type searchResponse struct {
	Results []resultItem `json:"results"`
	Partial bool         `json:"partial,omitempty"`
}

type resultsResponse struct {
	Results     []resultItem `json:"results"`
	Partial     bool         `json:"partial,omitempty"`
	Refined     bool         `json:"refined"`
	Rounds      int          `json:"rounds"`
	QueryPoints int          `json:"query_points"`
	Degraded    bool         `json:"degraded,omitempty"`
}

type feedbackResponse struct {
	Absorbed    bool `json:"absorbed"`
	Rounds      int  `json:"rounds"`
	QueryPoints int  `json:"query_points"`
}

func convert(rs []qcluster.Result) []resultItem {
	out := make([]resultItem, len(rs))
	for i, r := range rs {
		out[i] = resultItem{ID: r.ID, Dist: r.Dist}
	}
	return out
}

// genDist draws a finite distance from the shapes a page can carry:
// log-uniform over [1e-30, 1e30], both zeros, subnormals, and values
// at the 1e-6 / 1e21 format switches.
func genDist(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Float64frombits(uint64(rng.Int63n(1 << 52))) // subnormal
	case 3:
		edges := []float64{1e-6, 1e21, math.Nextafter(1e-6, 0), math.Nextafter(1e21, 0), 1e-7, 1e-10, 1e20}
		return edges[rng.Intn(len(edges))]
	case 4:
		return float64(rng.Intn(1000)) // integral
	default:
		return math.Pow(10, rng.Float64()*60-30)
	}
}

func genPage(rng *rand.Rand) page {
	pg := page{
		results:     make([]qcluster.Result, rng.Intn(121)),
		partial:     rng.Intn(2) == 0,
		session:     true,
		refined:     rng.Intn(2) == 0,
		rounds:      rng.Intn(20),
		queryPoints: rng.Intn(20),
		degraded:    rng.Intn(2) == 0,
	}
	for i := range pg.results {
		pg.results[i] = qcluster.Result{ID: int(rng.Int63n(1<<53 + 1)), Dist: genDist(rng)}
	}
	return pg
}

// sameResponse fails unless the two recorded responses agree in status,
// headers and body bytes.
func sameResponse(t *testing.T, what string, got, want *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("%s differs from encoding/json:\n got %d %v %q\nwant %d %v %q",
			what, got.Code, got.Header(), got.Body.Bytes(), want.Code, want.Header(), want.Body.Bytes())
	}
}

// TestWireMatchesEncodingJSON holds the typed encoder to encoding/json
// byte for byte on generated results pages, search pages and acks.
func TestWireMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	ctx := context.Background()
	for i := 0; i < 3000; i++ {
		pg := genPage(rng)
		status := http.StatusOK
		if pg.partial {
			status = http.StatusPartialContent
		}

		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		writePage(ctx, got, status, &pg)
		writeJSON(want, status, resultsResponse{
			Results: convert(pg.results), Partial: pg.partial, Refined: pg.refined,
			Rounds: pg.rounds, QueryPoints: pg.queryPoints, Degraded: pg.degraded,
		})
		sameResponse(t, "results page", got, want)

		search := page{results: pg.results, partial: pg.partial}
		got, want = httptest.NewRecorder(), httptest.NewRecorder()
		writePage(ctx, got, status, &search)
		writeJSON(want, status, searchResponse{Results: convert(pg.results), Partial: pg.partial})
		sameResponse(t, "search page", got, want)

		got, want = httptest.NewRecorder(), httptest.NewRecorder()
		writeAck(ctx, got, pg.refined, pg.rounds, pg.queryPoints)
		writeJSON(want, http.StatusOK, feedbackResponse{Absorbed: pg.refined, Rounds: pg.rounds, QueryPoints: pg.queryPoints})
		sameResponse(t, "feedback ack", got, want)
	}
}

// TestWireRefusesNonFiniteDistance: a page encoding/json cannot encode
// is a 500 naming the result, written before any other header.
func TestWireRefusesNonFiniteDistance(t *testing.T) {
	for _, d := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		rec := httptest.NewRecorder()
		pg := page{results: []qcluster.Result{{ID: 4, Dist: 1}, {ID: 7, Dist: d}}}
		if st := writePage(context.Background(), rec, http.StatusOK, &pg); st != http.StatusInternalServerError {
			t.Fatalf("dist %v: status %d, want 500", d, st)
		}
		if rec.Code != http.StatusInternalServerError || rec.Body.String() != `{"error":"result 7 has a non-finite distance"}`+"\n" {
			t.Fatalf("dist %v: %d %q", d, rec.Code, rec.Body.String())
		}
	}
}

// marksOutcome is what a feedback body decodes to: the status and text
// decodeBody writes on refusal, or the points on acceptance.
type marksOutcome struct {
	status int
	body   string
	points []feedbackPoint
}

func decodeWith(body []byte, decode func(http.ResponseWriter, *http.Request, *feedbackRequest) int) marksOutcome {
	rec := httptest.NewRecorder()
	var req feedbackRequest
	st := decode(rec, httptest.NewRequest("POST", "/v1/sessions/x/feedback", bytes.NewReader(body)), &req)
	return marksOutcome{status: st, body: rec.Body.String(), points: req.Points}
}

// sameMarks compares outcomes with float64s by bits and nil-ness kept:
// an omitted vector (nil) is resolved by id, an empty one is not.
func sameMarks(a, b marksOutcome) bool {
	if a.status != b.status || a.body != b.body || len(a.points) != len(b.points) || (a.points == nil) != (b.points == nil) {
		return false
	}
	for i, p := range a.points {
		q := b.points[i]
		if p.ID != q.ID || math.Float64bits(p.Score) != math.Float64bits(q.Score) ||
			len(p.Vector) != len(q.Vector) || (p.Vector == nil) != (q.Vector == nil) {
			return false
		}
		for j := range p.Vector {
			if math.Float64bits(p.Vector[j]) != math.Float64bits(q.Vector[j]) {
				return false
			}
		}
	}
	return true
}

func checkMarks(t *testing.T, body []byte) {
	t.Helper()
	decodeJSON := func(w http.ResponseWriter, r *http.Request, req *feedbackRequest) int { return decodeBody(w, r, req) }
	got, want := decodeWith(body, decodeMarks), decodeWith(body, decodeJSON)
	if !sameMarks(got, want) {
		t.Fatalf("body %.200q:\n decodeMarks %d %q %+v\n  decodeBody %d %q %+v",
			body, got.status, got.body, got.points, want.status, want.body, want.points)
	}
}

// FuzzFeedbackBody: for any body, the one-pass marks parser and its
// decodeBody fallback decide exactly what decodeBody alone decides.
func FuzzFeedbackBody(f *testing.F) {
	for _, s := range []string{
		`{"points":[{"id":12,"score":3},{"id":7,"score":1}]}`,
		`{"points":[{"id":3,"score":0.5,"vector":[1,-2.5,3e-7,0]}]}`,
		` { "points" : [ { "score" : 2 , "id" : 9 } ] } ` + "\n",
		`{"points":[]}`, `{"points":[{}]}`, `{"points":[{"id":1,"vector":[]}]}`,
		`null`, `{"points":null}`, `{"points":[null]}`, ``, `{}`,
		`{"Points":[{"ID":1,"score":1}]}`, `{"p\u006fints":[]}`,
		`{"points":[{"id":1,"id":2,"score":1}]}`, `{"points":[],"points":[{"id":1}]}`,
		`{"points":[{"id":1,"score":1e400}]}`, `{"points":[{"id":1e2,"score":1}]}`,
		`{"points":[{"id":-0,"score":-0}]}`, `{"points":[{"id":01,"score":1}]}`,
		`{"points":[{"id":1,"score":1}]}x`, `{"points":[{"id":1,"score":1}]}{}`,
		`{"points":[{"id":99999999999999999999,"score":123456789012345678}]}`,
		`{"points":[{"id":1,"score":1,"extra":0}]}`, `{"points":[{"id":1,"score":"1"}]}`,
		`{"points":[{"id":1,"score":1.}]}`, `{"points":[{"id":1,"score":-}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkMarks(t, body) })
}

// TestMarksBodyCutAtLimit is FuzzFeedbackBody's check on a body longer
// than maxBodyBytes. It is not a fuzz seed: mutating an 8 MiB input
// stalls the fuzzer.
func TestMarksBodyCutAtLimit(t *testing.T) {
	point := `{"id":1,"score":3},`
	checkMarks(t, []byte(`{"points":[`+strings.Repeat(point, maxBodyBytes/len(point))+`{"id":1,"score":3}]}`))
}

// TestWireAllocs: with a warm pool a 100-row page appends without
// allocating, and a 30-point marks body allocates only its Points.
func TestWireAllocs(t *testing.T) {
	pg := genPage(rand.New(rand.NewSource(1)))
	pg.results = pg.results[:0]
	for i := 0; i < 100; i++ {
		pg.results = append(pg.results, qcluster.Result{ID: 29000 + i, Dist: 0.001 * float64(i+1) / 7})
	}
	appendOnce := func() {
		bp := getBuf()
		putBuf(bp, appendPage(*bp, &pg))
	}
	appendOnce()
	if n := testing.AllocsPerRun(200, appendOnce); n != 0 {
		t.Errorf("appending a 100-row page: %v allocs, want 0", n)
	}

	var fb feedbackRequest
	for i := 0; i < 30; i++ {
		fb.Points = append(fb.Points, feedbackPoint{ID: 1000 + 37*i, Score: float64(1 + i%3)})
	}
	body, err := json.Marshal(fb)
	if err != nil {
		t.Fatal(err)
	}
	var req feedbackRequest
	if n := testing.AllocsPerRun(200, func() {
		if !parseMarks(body, &req) {
			t.Fatal("parseMarks refused the client's body")
		}
	}); n != 1 {
		t.Errorf("parsing a 30-point body: %v allocs, want 1 (the Points slice)", n)
	}
	if !reflect.DeepEqual(req, fb) {
		t.Fatalf("parsed %+v, want %+v", req, fb)
	}
}

// TestMarksFloodAllocs: a maxBodyBytes body of opening braces or of
// vector commas allocates a small multiple of its length, not one slot
// per brace or comma (≈40× and ≈8× the body).
func TestMarksFloodAllocs(t *testing.T) {
	pad := func(head, fill, tail string) []byte {
		return []byte(head + strings.Repeat(fill, maxBodyBytes-len(head)-len(tail)) + tail)
	}
	for name, body := range map[string][]byte{
		"braces": pad(`{"points":[`, "{", ""),
		"commas": pad(`{"points":[{"id":1,"score":1,"vector":[1`, ",", `]}]}`),
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		out := decodeWith(body, decodeMarks)
		runtime.ReadMemStats(&after)
		if out.status != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, out.status)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 3*maxBodyBytes {
			t.Errorf("%s flood: %d bytes allocated for a %d-byte body, want ≤ 3×", name, n, len(body))
		} else {
			t.Logf("%s flood: %.2f× the body allocated", name, float64(n)/float64(len(body)))
		}
	}
}
