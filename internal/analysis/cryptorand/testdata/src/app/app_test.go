// Test files are exempt: a test may pin a model seed.
package app

import (
	"core"
	"oram"
)

func pinned() {
	cfg := core.Config{Seed: 1}
	cfg.Seed = 2
	oram.NewClient(oram.WithSeed(cfg.Seed))
}
