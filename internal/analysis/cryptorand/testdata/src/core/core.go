// Package core is a cryptorand fixture: it forwards the model seed, so
// it may write it.
package core

// Config stands in for the device configuration.
type Config struct {
	Seed  int64
	HEVMs int
}

// Seeded forwards a seed.
func Seeded(seed int64) Config {
	cfg := Config{Seed: seed}
	cfg.Seed = seed
	return cfg
}
