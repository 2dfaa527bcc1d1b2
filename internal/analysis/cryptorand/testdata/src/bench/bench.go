// Package bench is a cryptorand fixture for the model: it pins the
// seed of every device and ORAM client it builds.
package bench

import (
	"core"
	"oram"
)

func model() {
	cfg := core.Config{Seed: 1}
	cfg.Seed = 1
	oram.NewClient(oram.WithSeed(1))
}
