package faultinject

import (
	"sync"
	"testing"
)

func TestSetFireClear(t *testing.T) {
	defer Reset()
	fired := 0
	Set("x", func() { fired++ })
	if !Enabled("x") {
		t.Fatal("x must be enabled after Set")
	}
	Fire("x")
	Fire("x")
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	Clear("x")
	if Enabled("x") {
		t.Fatal("x must be disabled after Clear")
	}
	Fire("x") // must be a no-op
	if fired != 2 {
		t.Fatalf("fired after Clear = %d", fired)
	}
}

func TestNilHookMarksEnabled(t *testing.T) {
	defer Reset()
	Set(SingularCovariance, nil)
	if !Enabled(SingularCovariance) {
		t.Fatal("nil hook must still enable the point")
	}
	Fire(SingularCovariance) // must not panic
}

func TestResetClearsEverything(t *testing.T) {
	Set("a", func() {})
	Set("b", func() {})
	Reset()
	if Enabled("a") || Enabled("b") {
		t.Fatal("Reset must clear all hooks")
	}
}

// Concurrent Set/Clear/Fire/Enabled must be race-free (run with -race).
func TestConcurrentAccess(t *testing.T) {
	defer Reset()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0:
					Set("p", func() {})
				case 1:
					Fire("p")
				case 2:
					Enabled("p")
				case 3:
					Clear("p")
				}
			}
		}(w)
	}
	wg.Wait()
}
