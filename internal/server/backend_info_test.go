package server

import (
	"math/rand"
	"testing"

	qcluster "repro"
	"repro/internal/synth"
)

// TestBackendInfoSurfaced checks that the active search backend (and the
// ANN graph parameters) appear both in /healthz's info block and in
// session-create responses — the client's only way to know whether its
// results carry an exactness or a recall contract.
func TestBackendInfoSurfaced(t *testing.T) {
	vectors, _ := synth.Mixture[[]float64](rand.New(rand.NewSource(11)), 6, 30, 5, 6)
	for _, tc := range []struct {
		opt  qcluster.IndexOptions
		want qcluster.IndexInfo
	}{
		// The exact default reports "tree" and no ANN block.
		{qcluster.IndexOptions{}, qcluster.IndexInfo{Backend: "tree"}},
		{qcluster.IndexOptions{Backend: qcluster.BackendANN, ANN: qcluster.ANNOptions{EfSearch: 48}},
			qcluster.IndexInfo{Backend: "ann", ANNM: 16, ANNEfConstruction: 128, ANNEfSearch: 48}},
	} {
		db, err := qcluster.NewDatabaseWithOptions(vectors, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		s := startServer(t, db, Options{})

		var hz healthzResponse
		if st, _ := call(t, s, "GET", "/healthz", nil, &hz); st != 200 {
			t.Fatalf("healthz = %d", st)
		}
		if hz.Info == nil || hz.Info.IndexInfo != tc.want {
			t.Fatalf("healthz info = %+v, want %+v", hz.Info, tc.want)
		}

		var cs createSessionResponse
		if st, raw := call(t, s, "POST", "/v1/sessions",
			createSessionRequest{Example: vectors[0]}, &cs); st != 201 {
			t.Fatalf("create session = %d %s", st, raw)
		}
		if cs.IndexInfo != tc.want {
			t.Fatalf("session-create backend info = %+v, want %+v", cs.IndexInfo, tc.want)
		}

		// A session on either backend completes a feedback round.
		var fb feedbackResponse
		if st, raw := call(t, s, "POST", "/v1/sessions/"+cs.SessionID+"/feedback",
			feedbackRequest{Points: []feedbackPoint{
				{ID: 0, Score: 3}, {ID: 1, Score: 3}, {ID: 2, Score: 3},
			}}, &fb); st != 200 || !fb.Absorbed {
			t.Fatalf("feedback = %d %s", st, raw)
		}
		var rr resultsResponse
		if st, _ := call(t, s, "GET", "/v1/sessions/"+cs.SessionID+"/results?k=10", nil, &rr); st != 200 || len(rr.Results) != 10 {
			t.Fatalf("results = %d, %d results", st, len(rr.Results))
		}
	}
}
