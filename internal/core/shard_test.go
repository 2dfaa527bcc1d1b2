package core

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"hardtape/internal/oram"
)

// TestShardedDeviceTraceParity: the shard count is a performance knob,
// never a behaviour knob — a 4-shard -full device must produce exactly
// the single-tree device's trace, gas, and ORAM query count for the
// same bundle.
func TestShardedDeviceTraceParity(t *testing.T) {
	sharded := config(ConfigFull, 2, 0)
	sharded.ORAMShards = 4
	r := newRig(t, deviceWorld, config(ConfigFull, 2, 0), sharded)
	single, four := r.devices[0], r.devices[1]

	for _, amount := range []uint64{123, 250} {
		res1, err := single.Execute(r.transferBundle(t, amount))
		if err != nil {
			t.Fatal(err)
		}
		res4, err := four.Execute(r.transferBundle(t, amount))
		if err != nil {
			t.Fatal(err)
		}
		if res1.Aborted != nil || res4.Aborted != nil {
			t.Fatalf("aborted: single=%v sharded=%v", res1.Aborted, res4.Aborted)
		}
		assertParity(t, fmt.Sprintf("amount %d sharded", amount), res1, res4, false)
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

	st := four.ORAMStats()
	if st.Shards != 4 {
		t.Fatalf("ORAMStats().Shards = %d, want 4", st.Shards)
	}
	if len(four.ORAMServers()) != 4 {
		t.Fatalf("ORAMServers() = %d servers, want 4", len(four.ORAMServers()))
	}
}

// TestShardedConfigRejections: real misconfigurations must fail device
// construction loudly, not degrade silently.
func TestShardedConfigRejections(t *testing.T) {
	r := newRig(t, worldShape{eoas: 4, tokens: 1})
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
			if _, err := NewDevice(cfg, nil, r.chain); err == nil {
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
	r := newRig(t, worldShape{eoas: 4, tokens: 1})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	live := &hangupListener{Listener: l, hungUp: make(chan struct{})}
	srv := oram.ServeTCP(memServer(t, 1<<10), live)
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
	if _, err := NewDevice(cfg, nil, r.chain); err == nil {
		t.Fatal("device built over a refusing shard")
	}
	select {
	case <-live.hungUp:
	case <-time.After(2 * time.Second):
		t.Fatal("shard 0's connection was left open after shard 1 refused")
	}
}
