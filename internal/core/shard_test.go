package core

import (
	"net"
	"sync"
	"testing"
	"time"

	"hardtape/internal/node"
	"hardtape/internal/oram"
	"hardtape/internal/tracer"
	"hardtape/internal/workload"
)

// buildShardedRig wires a device over the given ORAM shard count (and
// optional durable directory) against a small deterministic world.
func buildShardedRig(t testing.TB, mutate func(*Config)) *rig {
	t.Helper()
	wcfg := workload.DefaultConfig()
	wcfg.EOAs = 12
	wcfg.Tokens = 2
	wcfg.DEXes = 1
	w, err := workload.BuildWorld(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := node.New(w.State)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Features = ConfigFull
	cfg.HEVMs = 2
	if mutate != nil {
		mutate(&cfg)
	}
	dev, err := NewDevice(cfg, nil, chain)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
	return &rig{world: w, chain: chain, device: dev}
}

// TestShardedDeviceTraceParity: the shard count is a performance knob,
// never a behaviour knob — a 4-shard -full device must produce exactly
// the single-tree device's trace, gas, and ORAM query count for the
// same bundle.
func TestShardedDeviceTraceParity(t *testing.T) {
	single := buildShardedRig(t, nil)
	sharded := buildShardedRig(t, func(c *Config) { c.ORAMShards = 4 })

	for _, amount := range []uint64{123, 250} {
		res1, err := single.device.Execute(single.transferBundle(t, amount))
		if err != nil {
			t.Fatal(err)
		}
		res4, err := sharded.device.Execute(sharded.transferBundle(t, amount))
		if err != nil {
			t.Fatal(err)
		}
		if res1.Aborted != nil || res4.Aborted != nil {
			t.Fatalf("aborted: single=%v sharded=%v", res1.Aborted, res4.Aborted)
		}
		for i := range res1.Trace.Txs {
			if diffs := tracer.Diff(res1.Trace.Txs[i], res4.Trace.Txs[i]); len(diffs) != 0 {
				t.Fatalf("amount %d tx %d: sharded trace diverges: %v", amount, i, diffs)
			}
		}
		if res1.GasUsed != res4.GasUsed {
			t.Fatalf("amount %d: gas %d (single) != %d (sharded)", amount, res1.GasUsed, res4.GasUsed)
		}
		if res1.ORAMQueries != res4.ORAMQueries {
			t.Fatalf("amount %d: ORAM queries %d (single) != %d (sharded)",
				amount, res1.ORAMQueries, res4.ORAMQueries)
		}
		// The balanced overlap model can only make batched rounds
		// cheaper, never dearer.
		if res4.VirtualTime > res1.VirtualTime {
			t.Fatalf("amount %d: sharded virtual time %v exceeds single-tree %v",
				amount, res4.VirtualTime, res1.VirtualTime)
		}
	}

	st := sharded.device.ORAMStats()
	if st.Shards != 4 {
		t.Fatalf("ORAMStats().Shards = %d, want 4", st.Shards)
	}
	if len(sharded.device.ORAMServers()) != 4 {
		t.Fatalf("ORAMServers() = %d servers, want 4", len(sharded.device.ORAMServers()))
	}
}

// TestShardedConfigRejections: real misconfigurations must fail device
// construction loudly, not degrade silently.
func TestShardedConfigRejections(t *testing.T) {
	wcfg := workload.DefaultConfig()
	wcfg.EOAs = 4
	w, err := workload.BuildWorld(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := node.New(w.State)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"shards+short-remote-list", func(c *Config) {
			c.ORAMShards = 4
			c.RemoteORAMAddr = "127.0.0.1:1,127.0.0.1:2"
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.HEVMs = 1
			tc.mutate(&cfg)
			if _, err := NewDevice(cfg, nil, chain); err == nil {
				t.Fatal("invalid ORAM configuration accepted")
			}
		})
	}
}

// hangupListener reports, on hungUp, the first read error of any
// connection it accepted — i.e. the peer closing it.
type hangupListener struct {
	net.Listener
	once   sync.Once
	hungUp chan struct{}
}

func (l *hangupListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &hangupConn{Conn: c, l: l}, nil
}

type hangupConn struct {
	net.Conn
	l *hangupListener
}

func (c *hangupConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil {
		c.l.once.Do(func() { close(c.l.hungUp) })
	}
	return n, err
}

// TestBuildORAMClosesDialedShardsOnFailure: when shard 1 of 2 refuses
// the connection, device construction fails AND hangs up on shard 0,
// which it had already dialed — no connection outlives the error.
func TestBuildORAMClosesDialedShardsOnFailure(t *testing.T) {
	wcfg := workload.DefaultConfig()
	wcfg.EOAs = 4
	w, err := workload.BuildWorld(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := node.New(w.State)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := oram.NewMemServer(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	live := &hangupListener{Listener: l, hungUp: make(chan struct{})}
	srv := oram.ServeTCP(inner, live)
	defer srv.Close()
	// A port that was just released refuses connections.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := dead.Addr().String()
	dead.Close()

	cfg := DefaultConfig()
	cfg.HEVMs = 1
	cfg.ORAMShards = 2
	cfg.RemoteORAMAddr = srv.Addr().String() + "," + refused
	if _, err := NewDevice(cfg, nil, chain); err == nil {
		t.Fatal("device built over a refusing shard")
	}
	select {
	case <-live.hungUp:
	case <-time.After(2 * time.Second):
		t.Fatal("shard 0's connection was left open after shard 1 refused")
	}
}
