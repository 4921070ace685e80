package eval

import (
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/linalg"
	"repro/internal/rf"
)

// Config is the Sec. 5 protocol every retrieval experiment shares.
type Config struct {
	// NumQueries random initial queries are averaged (paper: 100).
	NumQueries int
	// Iterations of feedback after the initial query (paper: 5).
	Iterations int
	// K is the result size (paper: 100).
	K int
	// Seed drives the query selection.
	Seed int64
	// UseRefinementCache seeds each iteration's search from the previous
	// iteration's visited leaves (the multipoint caching of Fig. 7).
	UseRefinementCache bool
}

func (c Config) withDefaults() Config {
	if c.NumQueries <= 0 {
		c.NumQueries = 100
	}
	if c.Iterations <= 0 {
		c.Iterations = 5
	}
	if c.K <= 0 {
		c.K = 100
	}
	return c
}

// World is a retrieval universe: the image collection under one feature,
// or a controlled vector world.
type World struct {
	Vectors []linalg.Vector
	Labels  []int  // image id -> category
	Themes  []int  // category -> theme
	Complex []bool // category -> multi-modal (a "complex image query")
	// Pool holds the ids initial queries are drawn from.
	Pool []int
}

// ImageWorld is the image collection under feature f; every image is a
// query candidate and a category is complex when it is bimodal.
func ImageWorld(ds *dataset.Dataset, f dataset.Feature) *World {
	w := &World{Vectors: ds.Vectors(f), Labels: ds.Col.Labels()}
	for _, cat := range ds.Col.Categories {
		w.Themes = append(w.Themes, cat.Theme)
		w.Complex = append(w.Complex, cat.Bimodal())
	}
	w.Pool = make([]int, len(w.Vectors))
	for i := range w.Pool {
		w.Pool[i] = i
	}
	return w
}

// Trial is one engine's feedback session on one query.
type Trial struct {
	Query, Category int
	Complex         bool
	// Rounds[i] is retrieval i (0 = the initial query).
	Rounds []rf.Iteration
}

// Sweep is one engine's trials over a Run's queries, in query order.
type Sweep struct {
	Name   string
	World  *World
	Trials []Trial
	oracle *rf.Oracle // the ground truth the sessions were judged by
}

// Run draws cfg.NumQueries query ids from w.Pool once and runs each
// engine's feedback session on every one of them over the hybrid tree.
// Each factory must return a fresh engine per call; the sweeps come back
// in factory order.
func Run(cfg Config, w *World, engines ...func() rf.Engine) []Sweep {
	cfg = cfg.withDefaults()
	store, err := index.NewStore(w.Vectors)
	if err != nil {
		panic(err)
	}
	tree := index.NewHybridTree(store, index.TreeOptions{})
	oracle := rf.NewOracle(w.Labels, w.Themes)
	rng := rand.New(rand.NewSource(cfg.Seed))
	queries := make([]int, cfg.NumQueries)
	for i := range queries {
		queries[i] = w.Pool[rng.Intn(len(w.Pool))]
	}

	out := make([]Sweep, len(engines))
	for e, mk := range engines {
		s := Sweep{World: w, oracle: oracle, Trials: make([]Trial, len(queries))}
		for qi, qid := range queries {
			engine := mk()
			s.Name = engine.Name()
			var searcher index.Searcher = tree
			if cfg.UseRefinementCache {
				searcher = index.NewRefinementSearcher(tree)
			}
			session := &rf.Session{
				Engine: engine, Searcher: searcher, Oracle: oracle,
				Vec: store.Vector, K: cfg.K,
			}
			cat := w.Labels[qid]
			s.Trials[qi] = Trial{Query: qid, Category: cat, Complex: w.Complex[cat],
				Rounds: session.Run(qid, cat, cfg.Iterations)}
		}
		out[e] = s
	}
	return out
}

// judge returns the relevance predicate and the recall denominator of
// t's query, as the sweep's oracle defines them.
func (s Sweep) judge(t Trial) (relevant func(int) bool, total int) {
	return func(id int) bool { return s.oracle.Relevant(t.Category, id) }, s.oracle.CategorySize(t.Category)
}

// finalRecall is the recall of t's last page.
func (s Sweep) finalRecall(t Trial) float64 {
	rel, total := s.judge(t)
	ids := t.Rounds[len(t.Rounds)-1].IDs
	_, r := PrecisionRecall(ids, rel, len(ids), total)
	return r
}
