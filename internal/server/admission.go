package server

import (
	"context"
	"errors"
	"time"
)

// errShed is returned by admission.acquire when no in-flight slot frees
// up within the queue-wait budget; the HTTP layer maps it to 429.
var errShed = errors.New("server: overloaded, request shed")

// admission is the bounded in-flight semaphore in front of every /v1
// endpoint: one slot per admitted request. A request first tries for a
// slot without blocking; when the server is saturated it queues for at
// most wait before being shed — bounding both concurrency (slots) and
// queueing delay (wait), so the server degrades by rejecting quickly
// instead of collapsing under unbounded queues.
type admission struct {
	slots chan struct{}
	wait  time.Duration
}

func newAdmission(maxInFlight int, wait time.Duration) *admission {
	return &admission{slots: make(chan struct{}, maxInFlight), wait: wait}
}

// acquire takes an in-flight slot, waiting up to the queue-wait budget.
// It returns errShed on timeout and the context error if the caller
// gave up first; on any error no slot is held. queued reports whether
// the fast path missed (the request spent time in the queue).
func (a *admission) acquire(ctx context.Context) (queued bool, err error) {
	select {
	case a.slots <- struct{}{}:
		return false, nil
	default:
	}
	timer := time.NewTimer(a.wait)
	defer timer.Stop()
	select {
	case a.slots <- struct{}{}:
		return true, nil
	case <-timer.C:
		return true, errShed
	case <-ctx.Done():
		return true, ctx.Err()
	}
}

// release frees a slot taken by acquire.
func (a *admission) release() { <-a.slots }

// inFlight returns the number of slots currently held.
func (a *admission) inFlight() int { return len(a.slots) }

// capacity returns the in-flight bound.
func (a *admission) capacity() int { return cap(a.slots) }
