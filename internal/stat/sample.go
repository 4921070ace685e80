package stat

import "math/rand"

// RandomF draws a value distributed as the paper's Equation (20):
// random F_{d1,d2} = (χ²_{d1}/ ... )/(χ²_{d2}/ ...) built from sums of
// squared N(0,1) variables. The paper's Eq. 20 omits the conventional
// per-degree normalization (it literally writes Σx²/Σy²); we follow the
// convention F = (χ²_{d1}/d1)/(χ²_{d2}/d2) so the values match the
// F-distribution quantiles used elsewhere in Section 5.
func RandomF(rng *rand.Rand, d1, d2 int) float64 {
	num := chiSquareDraw(rng, d1) / float64(d1)
	den := chiSquareDraw(rng, d2) / float64(d2)
	return num / den
}

func chiSquareDraw(rng *rand.Rand, df int) float64 {
	var s float64
	for i := 0; i < df; i++ {
		x := rng.NormFloat64()
		s += x * x
	}
	return s
}
