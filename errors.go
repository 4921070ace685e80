package qcluster

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/wal"
)

// ErrPartialResults tags errors returned alongside best-effort results
// when a context-aware search is interrupted mid-traversal by
// cancellation or a deadline. The results returned with it are the best
// candidates found before the interrupt — sorted, possibly fewer than k,
// and not guaranteed exact. The error also wraps the context's error, so
// errors.Is(err, context.DeadlineExceeded) (or context.Canceled) works.
var ErrPartialResults = errors.New("partial results")

// ErrNotReady is returned by SearchContext when the query has not
// absorbed any feedback yet (see Query.Ready); the initial retrieval
// should go through SearchByExampleContext instead.
var ErrNotReady = errors.New("query has no feedback yet")

// ErrDimensionMismatch is returned by the context-aware search variants
// when an example vector's dimensionality differs from the database's.
// The error-free variants (SearchByExample, Session.Results) return nil
// results for the same condition. A longer example used to panic inside
// the index's lower-bound computation and a shorter one silently ranked
// by a prefix of the dimensions; both are now rejected at the boundary.
var ErrDimensionMismatch = errors.New("example dimension mismatch")

// ErrInternal is the sentinel wrapped by every InternalError, so callers
// can match the whole class with errors.Is(err, ErrInternal).
var ErrInternal = errors.New("internal error")

// ErrReadOnly is returned by every durable ingest call after a
// persistent disk error (failed WAL append, fsync or snapshot write)
// flipped the DurableDatabase into read-only degraded mode. Reads and
// feedback sessions keep working; writes fail fast until the process is
// restarted against healthy storage. The error wraps the original disk
// failure.
var ErrReadOnly = errors.New("database is read-only (durability degraded)")

// ErrCorruptSnapshot tags snapshot decode failures — both query-model
// snapshots (Query.Save/LoadQuery) and database store snapshots
// (Database.Snapshot/OpenDatabase): truncation, bit flips and
// semantically impossible contents all wrap it. Alias of the internal
// core sentinel so the public and internal views cannot drift.
var ErrCorruptSnapshot = core.ErrCorruptSnapshot

// ErrCorruptLog tags write-ahead-log damage that cannot be a torn tail
// (a checksum failure followed by intact records): truncating there
// would silently drop acknowledged writes, so OpenDatabase refuses to
// boot and the operator must restore from a snapshot. Alias of the
// internal wal sentinel.
var ErrCorruptLog = wal.ErrCorruptLog

// InternalError is produced by the panic barrier at the public API
// boundary: a panic escaping the math or index core (an invariant
// violation, a numerically impossible state) is converted into this
// typed error instead of crashing the calling goroutine. Retrieval state
// is left as it was when the panic fired; the caller can keep using the
// database for other queries.
type InternalError struct {
	// Op is the public operation that trapped the panic.
	Op string
	// Value is the recovered panic value.
	Value any
}

// Error implements the error interface.
func (e *InternalError) Error() string {
	return fmt.Sprintf("qcluster: %s: internal error: %v", e.Op, e.Value)
}

// Unwrap makes errors.Is(err, ErrInternal) true for every InternalError.
func (e *InternalError) Unwrap() error { return ErrInternal }

// barrier is the recover-based panic barrier installed at every
// error-returning public entry point: defer barrier("Op", &err).
func barrier(op string, err *error) {
	if r := recover(); r != nil {
		*err = &InternalError{Op: op, Value: r}
	}
}

// wrapInterrupt converts a context error from an interrupted search into
// the public partial-results error; nil stays nil.
func wrapInterrupt(err error, n int) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("qcluster: search interrupted after %d results: %w: %w",
		n, ErrPartialResults, err)
}
