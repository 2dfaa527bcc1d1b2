// Package app is a cryptorand fixture outside the model: it must leave
// every generator crypto-keyed.
package app

import (
	"core"
	"oram"
)

func build() {
	cfg := core.Config{HEVMs: 2}
	_ = cfg.Seed // reading is fine
	cfg.HEVMs = 3
	cfg.Seed = 7                            // want `model seed: core.Config.Seed written outside internal/bench and internal/core`
	cfg.Seed++                              // want `model seed: core.Config.Seed written`
	_ = core.Config{Seed: 1}                // want `model seed: core.Config.Seed written`
	_ = []*core.Config{{HEVMs: 1, Seed: 2}} // want `model seed: core.Config.Seed written`
	p := &cfg
	p.Seed, p.HEVMs = 4, 4           // want `model seed: core.Config.Seed written`
	oram.NewClient(oram.WithSeed(3)) // want `model seed: oram.WithSeed called outside internal/bench and internal/core`
	//hardtape:cryptorand-ok fixture: waived model seed
	cfg.Seed = 5
}
