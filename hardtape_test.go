package hardtape

import (
	"errors"
	"net"
	"strings"
	"testing"

	"hardtape/internal/attest"
	"hardtape/internal/uint256"
	"hardtape/internal/workload"
)

func TestTestbedQuickstartFlow(t *testing.T) {
	opts := DefaultTestbedOptions()
	opts.EOAs = 8
	opts.Tokens = 2
	opts.DEXes = 1
	opts.HEVMs = 2
	tb, err := NewTestbed(opts)
	if err != nil {
		t.Fatal(err)
	}

	// The full user flow over an in-process pipe.
	userConn, spConn := net.Pipe()
	defer userConn.Close()
	svc := NewService(tb.Device)
	go func() {
		defer spConn.Close()
		_ = svc.ServeConn(spConn)
	}()

	client, err := Dial(userConn, tb.Verifier(), true)
	if err != nil {
		t.Fatal(err)
	}

	token := tb.World.Tokens[0]
	tx, err := tb.World.SignedTxAt(tb.World.EOAs[0], 0, &token, 0,
		workload.CalldataTransfer(tb.World.EOAs[1], 10), 200_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.PreExecute(&Bundle{Txs: []*Transaction{tx}})
	if err != nil {
		t.Fatal(err)
	}
	if res.AbortReason != "" {
		t.Fatalf("aborted: %s", res.AbortReason)
	}
	if len(res.Trace.Txs) != 1 || res.Trace.Txs[0].Reverted {
		t.Fatalf("bad trace: %+v", res.Trace)
	}
	if got := new(uint256.Int).SetBytes(res.Trace.Txs[0].ReturnData); !got.Eq(uint256.NewInt(1)) {
		t.Fatalf("transfer returned %s", got)
	}
}

// TestDialRevokedDeviceFailsClosed: a plain Verifier that revokes a
// device's serial refuses that device's cold Dial, before the user side
// runs any asymmetric operation.
func TestDialRevokedDeviceFailsClosed(t *testing.T) {
	opts := DefaultTestbedOptions()
	opts.EOAs = 4
	opts.Tokens = 1
	opts.DEXes = 1
	opts.Features = ConfigRaw
	opts.HEVMs = 1
	tb, err := NewTestbed(opts)
	if err != nil {
		t.Fatal(err)
	}
	verifier := tb.Verifier()
	verifier.Revoke(tb.Device.Booted().Serial())

	userConn, spConn := net.Pipe()
	defer userConn.Close()
	go func() {
		defer spConn.Close()
		_ = NewService(tb.Device).ServeConn(spConn)
	}()
	before := attest.AsymOps()
	if _, err := Dial(userConn, verifier, false); !errors.Is(err, ErrDeviceRevoked) {
		t.Fatalf("cold dial to a revoked device: got %v, want ErrDeviceRevoked", err)
	}
	// The device answered the challenge before the verifier refused it:
	// its report signature, ephemeral ECDH key and session signing key
	// are the only asymmetric operations of the exchange.
	if ops := attest.AsymOps() - before; ops != 3 {
		t.Fatalf("refused dial cost %d asym ops, want the device's 3 and none on the user side", ops)
	}
}

func TestDirectDeviceExecution(t *testing.T) {
	opts := DefaultTestbedOptions()
	opts.EOAs = 6
	opts.Tokens = 1
	opts.DEXes = 1
	opts.Features = ConfigRaw
	opts.HEVMs = 1
	tb, err := NewTestbed(opts)
	if err != nil {
		t.Fatal(err)
	}
	to := tb.World.EOAs[1]
	tx, err := tb.World.SignedTxAt(tb.World.EOAs[0], 0, &to, 42, nil, 21_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.Device.Execute(&Bundle{Txs: []*Transaction{tx}})
	if err != nil {
		t.Fatal(err)
	}
	if res.GasUsed != 21000 {
		t.Fatalf("gas = %d", res.GasUsed)
	}
}

func TestConfigNames(t *testing.T) {
	for cfg, want := range map[Features]string{
		ConfigRaw: "-raw", ConfigE: "-E", ConfigES: "-ES",
		ConfigESO: "-ESO", ConfigFull: "-full",
	} {
		if cfg.Name() != want {
			t.Errorf("Name() = %s, want %s", cfg.Name(), want)
		}
		// The command line names each rung by its label, dash dropped.
		if f, ok := FeaturesNamed(strings.ToLower(want[1:])); !ok || f != cfg {
			t.Errorf("FeaturesNamed(%q) = %+v, %v", strings.ToLower(want[1:]), f, ok)
		}
	}
	if _, ok := FeaturesNamed("custom"); ok {
		t.Error("FeaturesNamed admits a sixth configuration")
	}
}
