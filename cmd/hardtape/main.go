// Command hardtape runs the service provider side: a synthetic world
// and node, HarDTAPE devices, and the pre-execution service on a TCP
// listener.
//
//	hardtape -addr :7337 -config full -credentials mfr.pub
//
// With -devices N > 1 or any -backend it serves a fleet instead: the
// local devices plus remote hardtape services (attested against their
// manufacturer credential) behind a scheduling gateway that speaks the
// same attested protocol a single device does. The gateway terminates
// user channels with its first device's identity and dispatches each
// bundle to the least-loaded healthy backend; failed backends are
// drained, re-checked with exponential backoff, and re-admitted:
//
//	hardtape -addr :7440 -devices 3 -backend 10.0.0.2:7337,10.0.0.3:7337 \
//	    -backend-credentials mfr.pub -backend-slots 3
//
// The manufacturer's public key is written to the credentials file;
// distribute it to clients out of band (cmd/hardtape-client reads it).
// The demo world is deterministic in -seed, so a client with the same
// seed can construct valid signed transactions against it.
package main

import (
	"crypto/elliptic"
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"hardtape"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "hardtape: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr    = flag.String("addr", "127.0.0.1:7337", "listen address")
		cfgName = flag.String("config", "full", "feature set: raw|e|es|eso|full")
		devices = flag.Int("devices", 1, "in-process devices (>1, or any -backend, serves a fleet gateway)")
		hevms   = flag.Int("hevms", 3, "HEVM cores per device")
		lanes   = flag.Int("lanes", 0, "speculative lanes per HEVM (>1 enables optimistic parallel pre-execution)")
		shards  = flag.Int("shards", 0, "ORAM shard count (>1 partitions the tree with shard-aware batched fan-out)")
		seed    = flag.Int64("seed", 19145194, "world seed")
		eoas    = flag.Int("eoas", 16, "synthetic EOAs")
		tokens  = flag.Int("tokens", 3, "ERC-20 tokens")
		dexes   = flag.Int("dexes", 2, "DEX pools")
		credOut = flag.String("credentials", "mfr.pub", "file to write the manufacturer public key")
		admin   = flag.String("admin", "", "admin endpoint address (e.g. 127.0.0.1:7338); empty disables telemetry")
		traceOn = flag.Bool("trace", false, "enable distributed tracing with the tail-sampling flight recorder (requires -admin; browse /traces)")

		// Fleet only.
		queueDepth  = flag.Int("queue", 0, "fleet admission queue depth (0 = 2x fleet capacity)")
		deadline    = flag.Duration("deadline", 10*time.Second, "fleet per-bundle deadline (0 = none)")
		healthInt   = flag.Duration("health-interval", 100*time.Millisecond, "fleet healthy-backend check cadence")
		remotes     = flag.String("backend", "", "comma-separated remote hardtape service addresses to pool")
		remoteCred  = flag.String("backend-credentials", "", "manufacturer credential file for remote backends")
		remoteSlots = flag.Int("backend-slots", 3, "bundles in flight per remote backend, all on its one session")
	)
	flag.Parse()

	features, err := parseFeatures(*cfgName)
	if err != nil {
		return err
	}

	opts := hardtape.DefaultTestbedOptions()
	opts.Seed = *seed
	opts.EOAs = *eoas
	opts.Tokens = *tokens
	opts.DEXes = *dexes
	opts.Features = features
	opts.HEVMs = *hevms
	opts.Lanes = *lanes
	opts.Shards = *shards

	// Telemetry is opt-in: without -admin the pipeline runs with nil
	// instruments (one branch per record site, zero allocations; a
	// gateway keeps a private registry, whose series are its state).
	// With -admin, /metrics carries the gateway's hardtape_fleet_*
	// series: queue, outcomes, and each backend's health and load.
	var reg *hardtape.Telemetry
	if *admin != "" {
		reg = hardtape.NewTelemetry()
		opts.Telemetry = reg
	}
	fleet := *devices > 1 || *remotes != ""
	if *traceOn {
		if reg == nil {
			return fmt.Errorf("-trace requires -admin (traces are served on the admin endpoint)")
		}
		// One tracer per process: service, gateway and local-device spans
		// share it; remote backends propagate the context over their
		// sessions.
		role := "device"
		if fleet {
			role = "gateway"
		}
		reg.EnableTracing(role, 0)
	}

	var (
		svc  *hardtape.Service
		mfr  *hardtape.Manufacturer
		what string
	)
	fmt.Printf("Provisioning %d device(s) and syncing world state (seed %d)...\n", *devices, *seed)
	if fleet {
		backends, err := remoteBackends(*remotes, *remoteCred, features.Sign, *remoteSlots)
		if err != nil {
			return err
		}
		fcfg := hardtape.DefaultFleetConfig()
		fcfg.QueueDepth = *queueDepth
		fcfg.BundleDeadline = *deadline
		fcfg.HealthInterval = *healthInt
		ftb, err := hardtape.NewFleetTestbed(opts, *devices, fcfg, backends...)
		if err != nil {
			return err
		}
		gw := ftb.Gateway
		defer gw.Close()
		svc = hardtape.NewFleetService(gw, ftb.Devices[0], features.Sign)
		mfr = ftb.Manufacturer
		what = fmt.Sprintf("fleet gateway (%s, %d slots)", features.Name(), gw.SlotCount())
	} else {
		tb, err := hardtape.NewTestbed(opts)
		if err != nil {
			return err
		}
		svc = hardtape.NewService(tb.Device)
		mfr = tb.Manufacturer
		what = fmt.Sprintf("service (%s, %d HEVMs, %d lanes, %d ORAM shards)", features.Name(), *hevms, *lanes, *shards)
	}
	// The service records wire metrics and, with -trace, starts
	// "service.bundle" spans that parent the executor's under the
	// caller's propagated context.
	svc.SetTelemetry(reg)

	// Publish the root of trust.
	pub := mfr.PublicKey()
	raw := elliptic.Marshal(elliptic.P256(), pub.X, pub.Y)
	if err := os.WriteFile(*credOut, []byte(hex.EncodeToString(raw)+"\n"), 0o644); err != nil {
		return fmt.Errorf("write credentials: %w", err)
	}
	fmt.Printf("Manufacturer credential written to %s\n", *credOut)

	if reg != nil {
		a, err := hardtape.StartAdmin(*admin, reg)
		if err != nil {
			return fmt.Errorf("admin endpoint: %w", err)
		}
		defer a.Close()
		fmt.Printf("Admin endpoint (metrics, pprof) on http://%s\n", a.Addr())
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("HarDTAPE %s listening on %s\n", what, l.Addr())
	return svc.ServeListener(l)
}

// remoteBackends builds one RemoteBackend per address in the
// comma-separated list, attested against the credential file.
func remoteBackends(addrs, credFile string, sign bool, slots int) ([]hardtape.Backend, error) {
	if addrs == "" {
		return nil, nil
	}
	if credFile == "" {
		return nil, fmt.Errorf("-backend requires -backend-credentials")
	}
	credHex, err := os.ReadFile(credFile)
	if err != nil {
		return nil, fmt.Errorf("read credentials: %w", err)
	}
	key, err := hex.DecodeString(strings.TrimSpace(string(credHex)))
	if err != nil {
		return nil, fmt.Errorf("decode credentials: %w", err)
	}
	verifier, err := hardtape.NewVerifierForKey(key)
	if err != nil {
		return nil, err
	}
	var backends []hardtape.Backend
	for i, addr := range strings.Split(addrs, ",") {
		if addr = strings.TrimSpace(addr); addr != "" {
			backends = append(backends, hardtape.NewRemoteBackend(fmt.Sprintf("remote-%d", i), addr, verifier, sign, slots))
			fmt.Printf("Pooling remote backend %s (%d slots)\n", addr, slots)
		}
	}
	return backends, nil
}

func parseFeatures(name string) (hardtape.Features, error) {
	if f, ok := hardtape.FeaturesNamed(name); ok {
		return f, nil
	}
	return hardtape.Features{}, fmt.Errorf("unknown config %q (raw|e|es|eso|full)", name)
}
