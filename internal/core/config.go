// Package core implements HarDTAPE itself: the trusted pre-execution
// device of the paper (Fig. 3). It composes every substrate — the
// EVM interpreter, the hardware-EVM shadow (3-layer memory), the
// Path-ORAM-backed paged world state, the prefetcher, attestation, the
// secure channel, and the tracer — into the bundle lifecycle
// (steps 1–11) and exposes the feature toggles of the paper's Fig. 4
// configurations (-raw, -E, -ES, -ESO, -full).
package core

import (
	"hardtape/internal/hevm"
	"hardtape/internal/simclock"
	"hardtape/internal/telemetry"
)

// Features selects the security mechanisms, mirroring Fig. 4.
type Features struct {
	// Encrypt protects user inputs and returned traces with AES-GCM
	// over the session key (-E).
	Encrypt bool
	// Sign adds per-bundle ECDSA signature and verification (-ES).
	Sign bool
	// ORAMStorage serves K-V queries (account meta + storage records)
	// through the Path ORAM (-ESO).
	ORAMStorage bool
	// ORAMCode serves contract code through the Path ORAM with
	// pagewise prefetching (-full).
	ORAMCode bool
}

// The paper's named configurations.
var (
	// ConfigRaw disables all off-chip data protections.
	ConfigRaw = Features{}
	// ConfigE enables encryption.
	ConfigE = Features{Encrypt: true}
	// ConfigES adds user data signature and verification.
	ConfigES = Features{Encrypt: true, Sign: true}
	// ConfigESO adds ORAM for storage.
	ConfigESO = Features{Encrypt: true, Sign: true, ORAMStorage: true}
	// ConfigFull adds ORAM for all world-state data. This is the
	// configuration the SP deploys.
	ConfigFull = Features{Encrypt: true, Sign: true, ORAMStorage: true, ORAMCode: true}
)

// Name renders the paper's label for a feature set.
func (f Features) Name() string {
	switch f {
	case ConfigRaw:
		return "-raw"
	case ConfigE:
		return "-E"
	case ConfigES:
		return "-ES"
	case ConfigESO:
		return "-ESO"
	case ConfigFull:
		return "-full"
	default:
		return "custom"
	}
}

// Config sizes one HarDTAPE device.
type Config struct {
	Features Features
	// HEVMs is the number of hardware EVM cores (the XCZU15EV fits 3).
	HEVMs int
	// Lanes is the number of speculative execution lanes per HEVM core.
	// Every bundle runs through the one in-order committer loop
	// (DESIGN.md §6): with 0 or 1 every transaction executes on the
	// core's commit lane (the paper's prototype); N > 1 additionally
	// pre-executes a multi-tx bundle's transactions optimistically on N
	// lanes, with conflict-driven re-execution on the commit lane.
	// Traces are byte-identical either way; only the modeled timing and
	// occupancy change.
	Lanes int
	// Hardware is the per-HEVM memory geometry.
	Hardware hevm.Config
	// Calibration is the virtual-time cost table.
	Calibration simclock.Calibration
	// ORAMCapacity is the ORAM tree capacity in 1 KB blocks (split
	// evenly across shards when ORAMShards > 1).
	ORAMCapacity uint64
	// ORAMShards is K, the number of independent Path ORAM trees the
	// one ORAM client partitions the world state across by a stable
	// block-id hash; a round touching several trees fans out across them
	// in one overlapped round (DESIGN.md §7). 0 or 1 is the paper's
	// single tree — the same client at K = 1.
	ORAMShards int
	// Seed keys every lane's swap noise and prefetch cadence and every
	// ORAM tree's leaves (drbg): 0 from crypto/rand, else a public model
	// seed that only models and tests may set (cryptorand lint).
	Seed int64
	// CaptureSteps enables per-instruction traces (correctness runs).
	CaptureSteps bool
	// DisablePrefetch turns off pagewise code prefetching: all code
	// pages of a frame are fetched in one burst. This is the ablation
	// of §IV-D problem 3 — it leaks the query type via burst patterns
	// and is for experiments only.
	DisablePrefetch bool
	// ORAMKey, when set, is the shared bucket-encryption key obtained
	// from a sibling device via RequestORAMKey (paper §IV-D). Empty
	// means "first device deployed": generate a fresh random key.
	ORAMKey []byte
	// RemoteORAMAddr, when non-empty, connects to TCP ORAM servers
	// instead of creating in-process ones — the paper's deployment shape
	// (the SP runs the ORAM server over Ethernet for multiple HarDTAPE
	// instances, §IV-D). One address per shard, comma-separated in shard
	// order.
	RemoteORAMAddr string
	// Telemetry, when non-nil, registers the device's metric series on
	// this registry and records per bundle. Nil (the default) disables
	// telemetry entirely: the pipeline pays one branch per record site
	// and allocates nothing.
	Telemetry *telemetry.Registry
}

// ORAMShardCount returns the effective shard count (minimum 1).
func (c Config) ORAMShardCount() int {
	if c.ORAMShards > 1 {
		return c.ORAMShards
	}
	return 1
}

// DefaultConfig mirrors the paper's prototype.
func DefaultConfig() Config {
	return Config{
		Features:     ConfigFull,
		HEVMs:        3,
		Hardware:     hevm.DefaultConfig(),
		Calibration:  simclock.DefaultCalibration(),
		ORAMCapacity: 1 << 16, // 64k pages ≙ 64 MB simulated world state
	}
}
