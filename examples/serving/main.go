// Serving demonstrates the HTTP serving layer end to end, in-process: it
// starts a qserve-style server on a loopback port, then plays a full
// client conversation against it over real HTTP — stateless search, a
// feedback session refined over several rounds, and finally a graceful
// drain.
//
//	go run ./examples/serving
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"

	qcluster "repro"
	"repro/internal/server"
)

func main() {
	// A small labelled Gaussian mixture: 8 categories x 50 vectors.
	rng := rand.New(rand.NewSource(7))
	const cats, perCat, dim = 8, 50, 6
	var vectors [][]float64
	var labels []int
	for c := 0; c < cats; c++ {
		center := make([]float64, dim)
		for d := range center {
			center[d] = rng.NormFloat64() * 1.5
		}
		for i := 0; i < perCat; i++ {
			v := make([]float64, dim)
			for d := range v {
				v[d] = center[d] + rng.NormFloat64()*2.5
			}
			vectors = append(vectors, v)
			labels = append(labels, c)
		}
	}
	db, err := qcluster.NewDatabase(vectors)
	if err != nil {
		panic(err)
	}

	s, err := server.Start("127.0.0.1:0", db, server.Options{})
	if err != nil {
		panic(err)
	}
	base := "http://" + s.Addr()
	fmt.Printf("serving %d vectors on %s\n\n", db.Len(), s.Addr())

	// 1. Stateless search around item 0.
	var sr struct {
		Results []struct {
			ID   int     `json:"id"`
			Dist float64 `json:"dist"`
		} `json:"results"`
	}
	post(base+"/v1/search", map[string]any{"example_id": 0, "k": 10}, &sr)
	fmt.Printf("stateless search: %d neighbours of item 0, nearest dist %.3f\n",
		len(sr.Results), sr.Results[0].Dist)

	// 2. A feedback session: retrieve, mark the same-category results
	// relevant, repeat. Precision over the rounds shows the query model
	// adapting.
	var created struct {
		SessionID string `json:"session_id"`
	}
	post(base+"/v1/sessions", map[string]any{"example_id": 0}, &created)
	fmt.Printf("\nsession %s:\n", created.SessionID[:8])
	for round := 1; round <= 3; round++ {
		var res struct {
			Results []struct {
				ID int `json:"id"`
			} `json:"results"`
			Rounds      int  `json:"rounds"`
			QueryPoints int  `json:"query_points"`
			Refined     bool `json:"refined"`
		}
		get(base+"/v1/sessions/"+created.SessionID+"/results?k=20", &res)
		relevant := 0
		var points []map[string]any
		for _, r := range res.Results {
			if labels[r.ID] == labels[0] {
				relevant++
				points = append(points, map[string]any{"id": r.ID, "score": 3})
			}
		}
		fmt.Printf("  round %d: precision %2d/20, refined=%v, %d query points\n",
			round, relevant, res.Refined, res.QueryPoints)
		post(base+"/v1/sessions/"+created.SessionID+"/feedback",
			map[string]any{"points": points}, nil)
	}

	// 3. Graceful drain: in-flight work finishes, new requests get 503.
	if err := s.Close(); err != nil {
		panic(err)
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		fmt.Println("\ndrained: listener closed")
	} else {
		resp.Body.Close()
		fmt.Printf("\ndrained: healthz now returns %d\n", resp.StatusCode)
	}
}

func post(url string, body, out any) {
	blob, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		panic(fmt.Sprintf("POST %s: %d", url, resp.StatusCode))
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			panic(err)
		}
	}
}

func get(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 && resp.StatusCode != 206 {
		panic(fmt.Sprintf("GET %s: %d", url, resp.StatusCode))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		panic(err)
	}
}
