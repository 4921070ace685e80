package stat

import (
	"testing"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, "Mean", Mean(xs), 5, 1e-15)
	approx(t, "SampleVariance", SampleVariance(xs), 32.0/7, 1e-12)
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty inputs must return 0")
	}
	if SampleVariance([]float64{1}) != 0 {
		t.Error("single-element sample variance must be 0")
	}
}
