// Package hardtape is the public API of the HarDTAPE reproduction: a
// hardware-dedicated trusted transaction pre-executor (He et al.,
// ICDCS 2025) built as a software simulation.
//
// A HarDTAPE deployment has four parties (paper §III-A):
//
//   - the Manufacturer provisions devices and anchors the chain of
//     trust ([NewManufacturer]);
//   - the Service Provider runs a [Device] (HEVM cores + Hypervisor)
//     and the untrusted ORAM server, exposed as a [Service];
//   - an Ethereum [Node] supplies Merkle-proof-authenticated world
//     state;
//   - the user connects with [Dial], verifies remote attestation, and
//     submits transaction [Bundle]s for confidential pre-execution.
//
// The quickstart in examples/quickstart wires all four in-process;
// cmd/hardtape and cmd/hardtape-client run them across TCP.
package hardtape

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"fmt"
	"io"

	"hardtape/internal/attest"
	"hardtape/internal/core"
	"hardtape/internal/fleet"
	"hardtape/internal/node"
	"hardtape/internal/session"
	"hardtape/internal/state"
	"hardtape/internal/telemetry"
	"hardtape/internal/types"
	"hardtape/internal/workload"
)

// Re-exported core types. These aliases are the supported surface; the
// internal packages may change without notice.
type (
	// Device is one HarDTAPE chip: Hypervisor + dedicated HEVM cores.
	Device = core.Device
	// Service exposes a Device over the authenticated message protocol.
	Service = core.Service
	// Client is the user side: attestation, secure channel, bundles.
	Client = core.Client
	// Config sizes a device; Features picks the Fig. 4 configuration.
	Config   = core.Config
	Features = core.Features
	// BundleResult is a completed pre-execution (trace + virtual time).
	BundleResult = core.BundleResult
	// TraceResult is the client-side response for one bundle.
	TraceResult = core.TraceResult

	// Node is the simulated Ethereum full node.
	Node = node.Node
	// Manufacturer provisions trusted devices.
	Manufacturer = attest.Manufacturer
	// Verifier checks remote attestation reports on the user side and
	// owns the revocation list (Verifier.Revoke).
	Verifier = attest.Verifier

	// Bundle is an ordered transaction sequence to pre-execute.
	Bundle = types.Bundle
	// Transaction is a signed Ethereum transaction.
	Transaction = types.Transaction
	// Address and Hash are the Ethereum primitive identifiers.
	Address = types.Address
	Hash    = types.Hash

	// World is the synthetic evaluation world (workload generator).
	World = workload.World

	// Gateway fronts a fleet of devices: bounded admission, least-busy
	// dispatch, health-checked failover.
	Gateway = fleet.Gateway
	// FleetConfig tunes the gateway.
	FleetConfig = fleet.Config
	// Backend is one execution target behind a gateway.
	Backend = fleet.Backend
	// LocalBackend adapts an in-process Device; RemoteBackend fronts a
	// Service endpoint over TCP.
	LocalBackend  = fleet.LocalBackend
	RemoteBackend = fleet.RemoteBackend

	// Telemetry is the opt-in metrics registry threaded through the
	// pipeline; AdminServer serves it over HTTP (Prometheus text, JSON
	// snapshot, pprof, and — with tracing enabled — /traces).
	Telemetry   = telemetry.Registry
	AdminServer = telemetry.AdminServer

	// Tracer mints distributed-tracing spans (Telemetry.EnableTracing);
	// FlightRecorder is the tail-sampling ring completed traces land
	// in; TraceID identifies one end-to-end trace across processes.
	Tracer         = telemetry.Tracer
	FlightRecorder = telemetry.Recorder
	TraceID        = telemetry.TraceID
	// Trace is one assembled trace as kept by the flight recorder.
	Trace = telemetry.Trace

	// SessionTicket is a resumption ticket: the opaque service-sealed
	// state plus the locally derived PSK. Present it to Resume to skip
	// the ~80 ms asymmetric handshake; tickets are single-use and every
	// session (cold or warm) mints a successor, via Client.Ticket.
	SessionTicket = session.ClientTicket
	// ReportVerifier is the user-side attestation contract Dial
	// accepts; *Verifier implements it.
	ReportVerifier = core.ReportVerifier
	// Admission bounds concurrent cold handshakes on a Service; warm
	// resumes bypass it.
	Admission = session.Admission
)

// Fleet gateway errors.
var (
	// ErrOverloaded rejects submissions when the admission queue is full.
	ErrOverloaded = fleet.ErrOverloaded
	// ErrNoBackends means every backend is down.
	ErrNoBackends = fleet.ErrNoBackends
)

// Session errors. Every adversarial resume path fails closed with one
// of these typed sentinels; ErrDeviceRevoked also fails a cold Dial.
var (
	ErrTicketTampered     = session.ErrTicketTampered
	ErrTicketExpired      = session.ErrTicketExpired
	ErrTicketReplayed     = session.ErrTicketReplayed
	ErrMeasurementChanged = session.ErrMeasurementChanged
	ErrDeviceRevoked      = attest.ErrDeviceRevoked
	ErrResumeRejected     = session.ErrResumeRejected
)

// The paper's named feature configurations (Fig. 4).
var (
	ConfigRaw  = core.ConfigRaw
	ConfigE    = core.ConfigE
	ConfigES   = core.ConfigES
	ConfigESO  = core.ConfigESO
	ConfigFull = core.ConfigFull
)

// FeaturesNamed returns the configuration named "raw", "e", "es", "eso"
// or "full".
func FeaturesNamed(name string) (Features, bool) { return core.FeaturesNamed(name) }

// DefaultConfig mirrors the paper's prototype (3 HEVMs, 1 MB L2,
// 2 ms ORAM RTT, -full features).
func DefaultConfig() Config { return core.DefaultConfig() }

// NewTelemetry creates a metrics registry. Pass it via
// TestbedOptions.Telemetry (or Config.Telemetry / FleetConfig.Telemetry)
// to enable instrumentation; leave nil for the zero-overhead default.
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }

// StartAdmin serves a registry's admin endpoint (/metrics,
// /metrics.json, /healthz, /debug/pprof) on addr until Close.
func StartAdmin(addr string, reg *Telemetry) (*AdminServer, error) {
	return telemetry.StartAdmin(addr, reg)
}

// NewManufacturer creates a trusted device manufacturer.
func NewManufacturer() (*Manufacturer, error) { return attest.NewManufacturer() }

// NewNode wraps a canonical world state as a full node.
func NewNode(genesis *state.WorldState) (*Node, error) { return node.New(genesis) }

// NewDevice provisions and boots a HarDTAPE device attached to a node.
// Pass a nil manufacturer to provision one internally (single-party
// tests); production users share one Manufacturer and pin its key.
func NewDevice(cfg Config, mfr *Manufacturer, chain *Node) (*Device, error) {
	return core.NewDevice(cfg, mfr, chain)
}

// NewService exposes a device over the message protocol.
func NewService(dev *Device) *Service { return core.NewService(dev) }

// NewFleetService exposes a whole gateway over the message protocol,
// using the attestation identity of one of its devices (the gateway
// runs inside the trusted boundary — see DESIGN.md §3 and §8).
// The gateway's cold-handshake admission gate, when configured
// (FleetConfig.ColdHandshakeLimit), is wired into the service so warm
// resumes never queue behind cold attestations.
func NewFleetService(g *Gateway, identity *Device, sign bool) *Service {
	s := core.NewServiceFor(g, identity.Booted(), sign)
	s.SetAdmission(g.SessionAdmission())
	return s
}

// DefaultFleetConfig returns production-ish gateway settings.
func DefaultFleetConfig() FleetConfig { return fleet.DefaultConfig() }

// NewGateway wires backends behind a gateway and starts its health
// monitor.
func NewGateway(cfg FleetConfig, backends ...Backend) *Gateway {
	return fleet.NewGateway(cfg, backends...)
}

// NewLocalBackend adapts an in-process device for a gateway.
func NewLocalBackend(name string, dev *Device) *LocalBackend {
	return fleet.NewLocalBackend(name, dev)
}

// NewRemoteBackend fronts the service at addr over one multiplexed
// session carrying up to slots bundles at once; sign must match the
// service's Features.Sign.
func NewRemoteBackend(name, addr string, verifier *Verifier, sign bool, slots int) *RemoteBackend {
	return fleet.NewRemoteBackend(name, addr, verifier, sign, slots)
}

// NewVerifier builds the user-side attestation verifier pinning the
// manufacturer's public key and the expected Hypervisor measurement.
func NewVerifier(mfr *Manufacturer) *Verifier {
	return attest.NewVerifier(mfr.PublicKey(), core.ImageMeasurement())
}

// NewVerifierForKey builds a verifier from a marshaled (uncompressed
// P-256) manufacturer public key, as distributed out of band to users.
func NewVerifierForKey(raw []byte) (*Verifier, error) {
	x, y := elliptic.Unmarshal(elliptic.P256(), raw)
	if x == nil {
		return nil, fmt.Errorf("hardtape: invalid manufacturer key")
	}
	pub := &ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}
	return attest.NewVerifier(pub, core.ImageMeasurement()), nil
}

// Dial attests a service over a stream and opens the secure channel.
// sign must match the service's Features.Sign. The verifier checks the
// full certificate chain and its revocation list on every call. The
// returned client carries a resumption ticket (Client.Ticket) for later
// warm reconnects.
func Dial(conn io.ReadWriter, verifier ReportVerifier, sign bool) (*Client, error) {
	return core.Dial(conn, verifier, sign)
}

// Resume re-establishes a session from a ticket with zero asymmetric
// crypto: ticket redemption plus an AES-GCM rekey, microseconds
// instead of the ~80 ms cold handshake. The ticket is consumed either
// way; on a typed failure (ErrTicket*, ErrMeasurementChanged) fall
// back to a cold Dial on a fresh connection.
func Resume(conn io.ReadWriter, ticket *SessionTicket) (*Client, error) {
	return core.Resume(conn, ticket)
}

// Testbed is a fully wired single-process deployment: synthetic world,
// node, manufacturer, and a synced device — the fastest way to try the
// library (and what the examples build on).
type Testbed struct {
	World        *World
	Chain        *Node
	Manufacturer *Manufacturer
	Device       *Device
}

// TestbedOptions size a testbed.
type TestbedOptions struct {
	Seed     int64
	EOAs     int
	Tokens   int
	DEXes    int
	Features Features
	HEVMs    int
	// Lanes enables optimistic intra-bundle parallelism: N > 1 runs
	// each bundle's transactions speculatively on N lanes per HEVM with
	// in-order commit (DESIGN.md §6); 0 or 1 executes sequentially.
	Lanes int
	// Shards partitions the ORAM across N independent trees with
	// shard-aware batched fan-out (DESIGN.md §7); 0 or 1 keeps the
	// paper's single tree.
	Shards int
	// Telemetry, when non-nil, instruments the testbed's device(s) —
	// and, for fleet testbeds, the gateway — on this registry.
	Telemetry *Telemetry
}

// DefaultTestbedOptions returns a laptop-scale -full testbed.
func DefaultTestbedOptions() TestbedOptions {
	return TestbedOptions{
		Seed: 19145194, EOAs: 16, Tokens: 3, DEXes: 2,
		Features: ConfigFull, HEVMs: 3,
	}
}

// NewTestbed builds and syncs a testbed.
func NewTestbed(opts TestbedOptions) (*Testbed, error) {
	tb, _, err := buildTestbed(opts, 1)
	return tb, err
}

// buildTestbed is the one builder behind both testbeds: world → node →
// manufacturer → n configured, synced devices, each with its own drawn
// serial and crypto-keyed generators. The returned Testbed holds
// device 0.
func buildTestbed(opts TestbedOptions, n int) (*Testbed, []*Device, error) {
	world, err := workload.BuildWorld(workload.Config{
		Seed: opts.Seed, EOAs: opts.EOAs, Tokens: opts.Tokens, DEXes: opts.DEXes,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("hardtape: build world: %w", err)
	}
	chain, err := node.New(world.State)
	if err != nil {
		return nil, nil, fmt.Errorf("hardtape: node: %w", err)
	}
	mfr, err := attest.NewManufacturer()
	if err != nil {
		return nil, nil, fmt.Errorf("hardtape: manufacturer: %w", err)
	}
	devs := make([]*Device, n)
	for i := range devs {
		cfg := core.DefaultConfig()
		cfg.Features = opts.Features
		if opts.HEVMs > 0 {
			cfg.HEVMs = opts.HEVMs
		}
		cfg.Lanes = opts.Lanes
		cfg.ORAMShards = opts.Shards
		cfg.Telemetry = opts.Telemetry
		if devs[i], err = core.NewDevice(cfg, mfr, chain); err != nil {
			return nil, nil, fmt.Errorf("hardtape: device %d: %w", i, err)
		}
		if err := devs[i].Sync(); err != nil {
			return nil, nil, fmt.Errorf("hardtape: sync %d: %w", i, err)
		}
	}
	return &Testbed{World: world, Chain: chain, Manufacturer: mfr, Device: devs[0]}, devs, nil
}

// Verifier returns the attestation verifier for this testbed's
// manufacturer.
func (tb *Testbed) Verifier() *Verifier {
	return NewVerifier(tb.Manufacturer)
}

// FleetTestbed is a multi-device single-process deployment: one
// synthetic world and node, one manufacturer, n synced devices pooled
// behind a running Gateway.
type FleetTestbed struct {
	World        *World
	Chain        *Node
	Manufacturer *Manufacturer
	Devices      []*Device
	// Backends are the gateway's local adapters, in device order —
	// exposed so tests and demos can Kill/Revive individual devices.
	Backends []*LocalBackend
	Gateway  *Gateway
}

// NewFleetTestbed builds n devices over one world and wires them
// behind a gateway (backends are named "dev-0" … "dev-n-1"), followed
// by any extra backends — remote services pooled with the local devices.
func NewFleetTestbed(opts TestbedOptions, n int, fcfg FleetConfig, extra ...Backend) (*FleetTestbed, error) {
	if n <= 0 {
		return nil, fmt.Errorf("hardtape: fleet needs at least one device, got %d", n)
	}
	tb, devs, err := buildTestbed(opts, n)
	if err != nil {
		return nil, err
	}
	ftb := &FleetTestbed{World: tb.World, Chain: tb.Chain, Manufacturer: tb.Manufacturer, Devices: devs}
	backends := make([]Backend, 0, n+len(extra))
	for i, dev := range devs {
		lb := fleet.NewLocalBackend(fmt.Sprintf("dev-%d", i), dev)
		ftb.Backends = append(ftb.Backends, lb)
		backends = append(backends, lb)
	}
	backends = append(backends, extra...)
	if fcfg.Telemetry == nil {
		fcfg.Telemetry = opts.Telemetry
	}
	ftb.Gateway = fleet.NewGateway(fcfg, backends...)
	return ftb, nil
}

// Verifier returns the attestation verifier for this fleet's
// manufacturer.
func (ftb *FleetTestbed) Verifier() *Verifier {
	return NewVerifier(ftb.Manufacturer)
}
