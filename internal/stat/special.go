// Package stat implements the statistical machinery the Qcluster paper
// relies on: the chi-square distribution (effective radius, Lemma 1), the
// F distribution (Hotelling's T² critical value, Eq. 16), the normal
// distribution, descriptive statistics and the random F draws (Eq. 20)
// behind the synthetic experiments of Section 5.
package stat

import (
	"math"
)

// Epsilon used to terminate continued-fraction and series evaluations.
const convergeEps = 1e-14

// maxIter bounds the special-function iteration counts.
const maxIter = 500

// LnGamma returns ln Γ(x) for x > 0.
func LnGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// GammaP returns the regularized lower incomplete gamma function
// P(a, x) = γ(a, x)/Γ(a) for a > 0, x >= 0.
func GammaP(a, x float64) float64 {
	switch {
	case x < 0 || a <= 0:
		return math.NaN()
	case x == 0:
		return 0
	case x < a+1:
		return gammaPSeries(a, x)
	default:
		return 1 - gammaQContinuedFraction(a, x)
	}
}

// gammaPSeries evaluates P(a,x) by its power series (x < a+1).
func gammaPSeries(a, x float64) float64 {
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*convergeEps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-LnGamma(a))
}

// gammaQContinuedFraction evaluates Q(a,x) by Lentz's continued fraction
// (x >= a+1).
func gammaQContinuedFraction(a, x float64) float64 {
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < convergeEps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-LnGamma(a)) * h
}

// LnBeta returns ln B(a, b).
func LnBeta(a, b float64) float64 {
	return LnGamma(a) + LnGamma(b) - LnGamma(a+b)
}

// BetaInc returns the regularized incomplete beta function I_x(a, b)
// for a, b > 0 and x in [0, 1].
func BetaInc(a, b, x float64) float64 {
	switch {
	case a <= 0 || b <= 0 || x < 0 || x > 1:
		return math.NaN()
	case x == 0:
		return 0
	case x == 1:
		return 1
	}
	front := math.Exp(a*math.Log(x) + b*math.Log(1-x) - LnBeta(a, b))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for BetaInc (Lentz's method).
func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		// Even step.
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		// Odd step.
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < convergeEps {
			break
		}
	}
	return h
}
