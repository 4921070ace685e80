package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestAdmissionFastPath(t *testing.T) {
	a := newAdmission(2, time.Second)
	for i := 0; i < 2; i++ {
		queued, err := a.acquire(context.Background())
		if err != nil || queued {
			t.Fatalf("acquire %d: queued=%v err=%v", i, queued, err)
		}
	}
	if a.inFlight() != 2 || a.capacity() != 2 {
		t.Fatalf("inFlight=%d capacity=%d", a.inFlight(), a.capacity())
	}
	a.release()
	if a.inFlight() != 1 {
		t.Fatalf("inFlight after release = %d", a.inFlight())
	}
}

func TestAdmissionShedsAfterQueueWait(t *testing.T) {
	a := newAdmission(1, 10*time.Millisecond)
	if _, err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	queued, err := a.acquire(context.Background())
	if !queued || !errors.Is(err, errShed) {
		t.Fatalf("saturated acquire: queued=%v err=%v, want shed", queued, err)
	}
	if a.inFlight() != 1 {
		t.Fatalf("shed acquire holds a slot: inFlight=%d", a.inFlight())
	}
	if waited := time.Since(start); waited < 10*time.Millisecond {
		t.Fatalf("shed after %v, before the queue-wait budget", waited)
	}
}

func TestAdmissionQueuedRequestGetsFreedSlot(t *testing.T) {
	a := newAdmission(1, time.Second)
	if _, err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := a.acquire(context.Background())
		got <- err
	}()
	time.Sleep(5 * time.Millisecond)
	a.release()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("queued acquire: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("queued request never got the freed slot")
	}
}

func TestAdmissionContextCancelWhileQueued(t *testing.T) {
	a := newAdmission(1, time.Minute)
	if _, err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(5 * time.Millisecond); cancel() }()
	if _, err := a.acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if a.inFlight() != 1 {
		t.Fatalf("after canceled waiter: inFlight=%d, want 1", a.inFlight())
	}
}

// TestAdmissionConcurrentAccounting hammers the semaphore from many
// goroutines under -race: the admitted count must never exceed the cap
// and every admitted request must release cleanly.
func TestAdmissionConcurrentAccounting(t *testing.T) {
	const cap, workers, rounds = 4, 32, 200
	a := newAdmission(cap, time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := a.acquire(context.Background()); err != nil {
					continue // shed under pressure: expected
				}
				if n := a.inFlight(); n > cap {
					t.Errorf("in-flight %d exceeds the cap %d", n, cap)
				}
				a.release()
			}
		}()
	}
	wg.Wait()
	if a.inFlight() != 0 {
		t.Fatalf("slots leaked: inFlight=%d", a.inFlight())
	}
}
