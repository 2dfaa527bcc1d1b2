package cryptorand_test

import (
	"testing"

	"hardtape/internal/analysis/analysistest"
	"hardtape/internal/analysis/cryptorand"
)

func TestCryptorand(t *testing.T) {
	analysistest.Run(t, "testdata", cryptorand.Analyzer, "hevm", "plain", "core", "oram", "app", "bench")
}
