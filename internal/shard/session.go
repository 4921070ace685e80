package shard

import (
	"context"

	qcluster "repro"
	"repro/internal/distance"
	"repro/internal/index"
)

// Session is a feedback session over the whole set: qcluster.Session —
// the one implementation of retrieve, mark, refine — searching through
// the set's scatter-gather, with one refinement searcher per shard so
// every shard keeps its own cross-iteration leaf cache. Retrieval fans
// out to all shards — the multipoint query's exact top-k needs every
// shard's candidates — while the session itself is pinned to a home
// shard member by consistent-hash routing (see Set.HomeShard) purely as
// a serving-tier affinity signal.
type Session struct {
	*qcluster.Session
	home int
}

// NewSession starts a sharded retrieval session from an example vector
// with no routing affinity (home -1).
func (s *Set) NewSession(example []float64, opt qcluster.Options) *Session {
	return s.newSession(example, opt, -1)
}

// NewSessionRouted is NewSession with consistent-hash affinity: the
// session's home shard is HomeShard(key) (the serving tier passes the
// session id).
func (s *Set) NewSessionRouted(example []float64, opt qcluster.Options, key string) *Session {
	return s.newSession(example, opt, s.ring.route(key))
}

func (s *Set) newSession(example []float64, opt qcluster.Options, home int) *Session {
	on := &searcher{Set: s, legs: s.newLegs(true)}
	return &Session{Session: qcluster.NewSessionOver(on, example, opt), home: home}
}

// newLegs returns one leg handle per shard: cached for a session,
// uncached for the set's stateless searches.
func (s *Set) newLegs(cached bool) []*qcluster.ShardSearcher {
	legs := make([]*qcluster.ShardSearcher, len(s.shards))
	for i, db := range s.shards {
		legs[i] = db.NewShardSearcher(cached)
	}
	return legs
}

// Home returns the session's home shard (-1 when unrouted).
func (sess *Session) Home() int { return sess.home }

// searcher is the sharded qcluster.SessionSearcher: the set (its Dim and
// its Registry, where sessions count) plus the session's cached legs.
type searcher struct {
	*Set
	legs []*qcluster.ShardSearcher
}

func (ss *searcher) SearchMetric(ctx context.Context, m distance.Metric, k int, approx bool, efSearch int) ([]qcluster.Result, index.SearchStats, error) {
	return ss.gather(ctx, ss.legs, m, k, approx, efSearch)
}
