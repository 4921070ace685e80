// Package faultinject provides race-safe test hooks for forcing the
// retrieval core down its degraded paths: singular covariances that must
// fall back to the ridge-regularized inverse, mid-traversal cancellations
// of the best-first k-NN search, and degenerate feedback batches. The
// production code calls Fire/Enabled at a handful of named points; with
// no hooks registered the cost is a single atomic load, so the
// instrumentation can stay compiled in.
package faultinject

import (
	"sync"
	"sync/atomic"
)

// Named hook points instrumented in the retrieval core.
const (
	// SingularCovariance, when enabled, makes cluster.InverseOfInfo treat
	// every full covariance as singular, forcing the ridge-regularized
	// fallback path (and the degraded query-health status) even for
	// well-conditioned clusters.
	SingularCovariance = "cluster.singular-covariance"
	// KNNPop fires at every heap pop of the hybrid tree's best-first
	// traversal. A test hook can cancel a context or block here to
	// exercise mid-search deadlines with deterministic timing.
	KNNPop = "index.knn-pop"
	// KNNSweepChunk fires before every chunk of a swept k-NN search, on
	// whichever sweep worker takes it (so a hook must be safe for
	// concurrent calls) — KNNPop's twin for the sweep phase.
	KNNSweepChunk = "index.knn-sweep-chunk"
	// FeedbackBatch fires at the entry of QueryModel.Feedback, before the
	// batch is filtered, so tests can observe or perturb feedback timing.
	FeedbackBatch = "core.feedback-batch"

	// WALPreFsync fires inside wal.Writer.Commit after the record bytes
	// reached the OS buffer but before fsync. A crash here must lose the
	// un-synced records and must NOT have acked them.
	WALPreFsync = "wal.pre-fsync"
	// WALPostFsync fires immediately after a successful fsync, before the
	// committed records are applied or acked. A crash here leaves durable
	// records that were never acknowledged; replay must still apply them
	// as complete batches.
	WALPostFsync = "wal.post-fsync"
	// WALTornAppend, when enabled, makes the next wal.Writer.Commit write
	// only a prefix of the final record's bytes (then fire the hook and
	// fail): the on-disk image a power cut mid-write leaves behind.
	// Replay must detect the torn tail and truncate it.
	WALTornAppend = "wal.torn-append"
	// WALFsyncError, when enabled, makes every wal fsync report an
	// injected error without touching the file — the persistent-disk-
	// failure path that must flip a durable database into read-only
	// degraded mode.
	WALFsyncError = "wal.fsync-error"
	// SnapshotMidRename fires between writing+fsyncing a snapshot temp
	// file and atomically renaming it into place. A crash here must boot
	// from the previous snapshot plus the intact WAL.
	SnapshotMidRename = "snapshot.mid-rename"
)

var (
	armed atomic.Int32 // number of registered hooks; 0 = fast path
	mu    sync.RWMutex
	hooks = map[string]func(){}
)

// Set registers fn to run whenever Fire(point) is reached. A nil fn
// still marks the point enabled (for Enabled-gated paths that need no
// callback). Replacing an existing hook is allowed.
func Set(point string, fn func()) {
	if fn == nil {
		fn = func() {}
	}
	mu.Lock()
	if _, ok := hooks[point]; !ok {
		armed.Add(1)
	}
	hooks[point] = fn
	mu.Unlock()
}

// Clear removes the hook at point, if any.
func Clear(point string) {
	mu.Lock()
	if _, ok := hooks[point]; ok {
		delete(hooks, point)
		armed.Add(-1)
	}
	mu.Unlock()
}

// Reset removes every registered hook. Tests should defer this.
func Reset() {
	mu.Lock()
	for p := range hooks {
		delete(hooks, p)
	}
	armed.Store(0)
	mu.Unlock()
}

// Enabled reports whether a hook is registered at point.
func Enabled(point string) bool {
	if armed.Load() == 0 {
		return false
	}
	mu.RLock()
	_, ok := hooks[point]
	mu.RUnlock()
	return ok
}

// Fire invokes the hook registered at point, if any. The hook runs
// outside the registry lock, so it may call Set/Clear/Reset itself.
func Fire(point string) {
	if armed.Load() == 0 {
		return
	}
	mu.RLock()
	fn := hooks[point]
	mu.RUnlock()
	if fn != nil {
		fn()
	}
}
