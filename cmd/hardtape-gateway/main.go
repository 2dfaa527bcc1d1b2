// Command hardtape-gateway runs the fleet front-end: a pool of
// in-process HarDTAPE devices (plus optional remote hardtape services)
// behind a scheduling gateway, exposed to users over the same
// attested protocol a single device speaks.
//
//	hardtape-gateway -addr :7440 -devices 3 -hevms 3 -config full
//
// Remote devices (other `hardtape` processes) join the pool with
// -backend, attested against their manufacturer credential:
//
//	hardtape-gateway -backend 10.0.0.2:7337,10.0.0.3:7337 \
//	    -backend-credentials mfr.pub -backend-sessions 3
//
// The gateway terminates user secure channels with the identity of
// its first local device and dispatches each bundle to the
// least-loaded healthy backend; killed backends are drained, probed
// with exponential backoff, and re-admitted when they recover. The
// client side is unchanged: point cmd/hardtape-client at the gateway.
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
		fmt.Fprintf(os.Stderr, "hardtape-gateway: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr    = flag.String("addr", "127.0.0.1:7440", "listen address")
		cfgName = flag.String("config", "full", "feature set: raw|e|es|eso|full")
		devices = flag.Int("devices", 3, "in-process devices in the pool")
		hevms   = flag.Int("hevms", 3, "HEVM cores per device")
		lanes   = flag.Int("lanes", 0, "speculative lanes per HEVM (>1 enables optimistic parallel pre-execution)")
		shards  = flag.Int("shards", 0, "ORAM shard count (>1 partitions the tree with shard-aware batched fan-out)")
		seed    = flag.Int64("seed", 19145194, "world seed")
		eoas    = flag.Int("eoas", 16, "synthetic EOAs")
		tokens  = flag.Int("tokens", 3, "ERC-20 tokens")
		dexes   = flag.Int("dexes", 2, "DEX pools")
		credOut = flag.String("credentials", "mfr.pub", "file to write the manufacturer public key")

		queueDepth = flag.Int("queue", 0, "admission queue depth (0 = 2x fleet capacity)")
		deadline   = flag.Duration("deadline", 10*time.Second, "per-bundle deadline (0 = none)")
		healthInt  = flag.Duration("health-interval", 100*time.Millisecond, "healthy-backend probe cadence")

		remotes    = flag.String("backend", "", "comma-separated remote hardtape service addresses to pool")
		remoteCred = flag.String("backend-credentials", "", "manufacturer credential file for remote backends")
		remoteSess = flag.Int("backend-sessions", 3, "parallel sessions per remote backend")
		statsEvery = flag.Duration("stats", 10*time.Second, "fleet stats print interval (0 = off)")
		admin      = flag.String("admin", "", "admin endpoint address (e.g. 127.0.0.1:7441); empty disables telemetry")
		traceOn    = flag.Bool("trace", false, "enable distributed tracing with the tail-sampling flight recorder (requires -admin; browse /traces)")
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

	fcfg := hardtape.DefaultFleetConfig()
	fcfg.QueueDepth = *queueDepth
	fcfg.BundleDeadline = *deadline
	fcfg.HealthInterval = *healthInt

	// Telemetry is opt-in: without -admin devices and gateway run with
	// nil instruments (the gateway keeps a private registry for Stats).
	var reg *hardtape.Telemetry
	if *admin != "" {
		reg = hardtape.NewTelemetry()
		opts.Telemetry = reg
		fcfg.Telemetry = reg
	}
	if *traceOn {
		if reg == nil {
			return fmt.Errorf("-trace requires -admin (traces are served on the admin endpoint)")
		}
		// One tracer for the whole gateway process: service admission,
		// gateway scheduling, and local-device execution spans share it;
		// remote backends propagate the context over their sessions.
		reg.EnableTracing("gateway", 0)
	}

	// Remote devices join the same pool, attested like any user would.
	var remoteBackends []hardtape.Backend
	if *remotes != "" {
		if *remoteCred == "" {
			return fmt.Errorf("-backend requires -backend-credentials")
		}
		verifier, err := verifierFromFile(*remoteCred)
		if err != nil {
			return err
		}
		for i, raddr := range strings.Split(*remotes, ",") {
			raddr = strings.TrimSpace(raddr)
			if raddr == "" {
				continue
			}
			remoteBackends = append(remoteBackends, hardtape.NewRemoteBackend(
				fmt.Sprintf("remote-%d", i), raddr, verifier, features.Sign, *remoteSess))
			fmt.Printf("Pooling remote backend %s (%d sessions)\n", raddr, *remoteSess)
		}
	}

	fmt.Printf("Provisioning %d devices (%d HEVMs each) and syncing world state (seed %d)...\n",
		*devices, *hevms, *seed)
	ftb, err := hardtape.NewFleetTestbed(opts, *devices, fcfg, remoteBackends...)
	if err != nil {
		return err
	}
	gw := ftb.Gateway
	defer gw.Close()

	// Publish the root of trust for this gateway's own identity.
	pub := ftb.Manufacturer.PublicKey()
	raw := elliptic.Marshal(elliptic.P256(), pub.X, pub.Y)
	if err := os.WriteFile(*credOut, []byte(hex.EncodeToString(raw)+"\n"), 0o644); err != nil {
		return fmt.Errorf("write credentials: %w", err)
	}
	fmt.Printf("Manufacturer credential written to %s\n", *credOut)

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				printStats(gw.Stats())
			}
		}()
	}

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
	fmt.Printf("Fleet gateway (%s, %d slots) listening on %s\n",
		features.Name(), gw.SlotCount(), l.Addr())
	svc := hardtape.NewFleetService(gw, ftb.Devices[0], features.Sign)
	svc.SetTelemetry(reg)
	return svc.ServeListener(l)
}

func printStats(st hardtape.FleetStats) {
	fmt.Printf("[fleet] slots %d/%d free, waiting %d, in-flight %d | admitted %d rejected %d completed %d failed %d retries %d | queue wait p50 %v p99 %v\n",
		st.FreeSlots, st.Capacity, st.Waiting, st.InFlight,
		st.Admitted, st.Rejected, st.Completed, st.Failed, st.Retries,
		st.QueueWaitP50, st.QueueWaitP99)
	for _, b := range st.Backends {
		state := "up"
		if !b.Healthy {
			state = "DOWN"
		}
		fmt.Printf("[fleet]   %-10s %-4s free %d/%d, dispatched %d, failures %d %s\n",
			b.Name, state, b.FreeSlots, b.Capacity, b.Dispatched, b.Failures, b.LastError)
	}
}

func verifierFromFile(path string) (*hardtape.Verifier, error) {
	credHex, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read credentials: %w", err)
	}
	raw, err := hex.DecodeString(strings.TrimSpace(string(credHex)))
	if err != nil {
		return nil, fmt.Errorf("decode credentials: %w", err)
	}
	return hardtape.NewVerifierForKey(raw)
}

func parseFeatures(name string) (hardtape.Features, error) {
	switch name {
	case "raw":
		return hardtape.ConfigRaw, nil
	case "e":
		return hardtape.ConfigE, nil
	case "es":
		return hardtape.ConfigES, nil
	case "eso":
		return hardtape.ConfigESO, nil
	case "full":
		return hardtape.ConfigFull, nil
	default:
		return hardtape.Features{}, fmt.Errorf("unknown config %q (raw|e|es|eso|full)", name)
	}
}
