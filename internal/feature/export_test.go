package feature

// The reference extractors and their test helpers, for the external test
// of the public wrappers (match_test.go).
var (
	RefColorMoments    = refColorMoments
	RefTextureFeatures = refTextureFeatures
	SameBits           = sameBits
	RandomRGBA         = randomRGBA
)
