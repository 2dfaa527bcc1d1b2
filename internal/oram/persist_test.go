package oram

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFileServerRoundTripAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "buckets.dat")
	srv, err := OpenFileServer(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([][]byte, srv.Depth())
	for l := range payload {
		payload[l] = bytes.Repeat([]byte{byte(l + 1)}, 80)
	}
	if err := srv.WritePath(3, payload); err != nil {
		t.Fatal(err)
	}
	back, err := srv.ReadPath(3)
	if err != nil {
		t.Fatal(err)
	}
	for l := range payload {
		if !bytes.Equal(back[l], payload[l]) {
			t.Fatalf("level %d: round trip mismatch", l)
		}
	}
	// A fresh tree's untouched paths come back as empty buckets.
	empty, err := srv.ReadPath(srv.Leaves() - 1)
	if err != nil {
		t.Fatal(err)
	}
	for l, b := range empty {
		// Levels shared with leaf 3's path hold data; the distinct tail
		// must be empty.
		if l >= 1 && len(b) != 0 && !bytes.Equal(b, payload[l]) {
			t.Fatalf("level %d: unexpected bucket content", l)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the bucket store is durable.
	srv2, err := OpenFileServer(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	back, err = srv2.ReadPath(3)
	if err != nil {
		t.Fatal(err)
	}
	for l := range payload {
		if !bytes.Equal(back[l], payload[l]) {
			t.Fatalf("level %d lost across reopen", l)
		}
	}
	// Reopening under a different geometry is rejected, not reinterpreted.
	srv2.Close()
	if _, err := OpenFileServer(path, 4096); !errors.Is(err, ErrCapacity) {
		t.Fatalf("geometry mismatch: %v, want ErrCapacity", err)
	}
}

func TestFileServerBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "buckets.dat")
	srv, err := OpenFileServer(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileServer(path, 64); !errors.Is(err, ErrTampered) {
		t.Fatalf("bad magic: %v, want ErrTampered", err)
	}
}

// recoveryRound builds round r of the deterministic recovery workload:
// a mixed batch whose content is a pure function of (r, i), so two runs
// that execute the same rounds must return the same bytes.
func recoveryRound(r int) []BatchOp {
	ops := make([]BatchOp, 8)
	rng := uint64(r)*2654435761 + 17
	next := func() uint64 { rng = rng*6364136223846793005 + 1; return rng >> 33 }
	for i := range ops {
		id := BlockID(next() % 48)
		if (int(next())+i)%2 == 0 {
			ops[i] = BatchOp{Op: OpWrite, ID: id,
				Data: []byte(fmt.Sprintf("round-%03d-op-%d-block-%d", r, i, id))}
		} else {
			ops[i] = BatchOp{Op: OpRead, ID: id}
		}
	}
	return ops
}

// runRecoveryRounds executes rounds [from, to) and appends every
// returned value (reads AND write echoes, nil as a marker) to trace.
func runRecoveryRounds(t *testing.T, cli *Client, from, to int, trace *strings.Builder) {
	t.Helper()
	for r := from; r < to; r++ {
		out, err := cli.AccessBatch(context.Background(), recoveryRound(r))
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		for i, v := range out {
			if v == nil {
				fmt.Fprintf(trace, "r%d.%d:nil;", r, i)
				continue
			}
			fmt.Fprintf(trace, "r%d.%d:%q;", r, i, bytes.TrimRight(v, "\x00"))
		}
	}
}

// TestShardedStoreRecoveryMidWorkload is the crash-recovery contract:
// a device killed mid-workload and reopened over the same directory
// resumes at the last checkpoint and RETURNS THE SAME BYTES as an
// uninterrupted run. (The adversary-visible leaf sequences differ — the
// recovered client draws fresh uniform remaps, which is exactly what
// obliviousness wants — but the data trace is byte-identical.)
func TestShardedStoreRecoveryMidWorkload(t *testing.T) {
	const (
		capacity = 256
		rounds   = 24
		killAt   = 13
	)
	key := testKey()
	forShards(t, func(t *testing.T, shards int) {
		// Uninterrupted control run.
		var control strings.Builder
		ctl, err := OpenShardedStore(filepath.Join(t.TempDir(), "ctl"), shards, capacity, key)
		if err != nil {
			t.Fatal(err)
		}
		runRecoveryRounds(t, ctl, 0, rounds, &control)
		if err := ctl.Close(); err != nil {
			t.Fatal(err)
		}

		// Crashed run: same workload, killed after round killAt's checkpoint
		// (a checkpoint publishes after every round) by abandoning the client
		// without Close, then reopened over the same directory.
		dir := filepath.Join(t.TempDir(), "crash")
		var crashed strings.Builder
		first, err := OpenShardedStore(dir, shards, capacity, key)
		if err != nil {
			t.Fatal(err)
		}
		runRecoveryRounds(t, first, 0, killAt, &crashed)
		// No Close, no final Sync: the kill. Everything up to the last
		// published checkpoint is on disk by construction.

		second, err := OpenShardedStore(dir, shards, capacity, key)
		if err != nil {
			t.Fatalf("recovery open: %v", err)
		}
		defer second.Close()
		for i, cs := range second.stores {
			if cs.Epoch() != killAt {
				t.Fatalf("shard %d recovered at epoch %d, want %d", i, cs.Epoch(), killAt)
			}
		}
		runRecoveryRounds(t, second, killAt, rounds, &crashed)

		if control.String() != crashed.String() {
			t.Fatalf("recovered trace diverges from uninterrupted run:\ncontrol: %.300s\ncrashed: %.300s",
				control.String(), crashed.String())
		}
	})
}

// TestShardedStoreCorruptCheckpoint: a flipped byte in a published
// snapshot, a swapped slot file, or a mangled manifest must all surface
// as ErrTampered on reopen — never as silent state loss.
func TestShardedStoreCorruptCheckpoint(t *testing.T) {
	key := testKey()
	seed := func(t *testing.T) string {
		dir := t.TempDir()
		cli, err := OpenShardedStore(dir, 2, 128, key)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			if _, err := cli.AccessBatch(context.Background(), recoveryRound(r)); err != nil {
				t.Fatal(err)
			}
		}
		if err := cli.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("flipped-snapshot-byte", func(t *testing.T) {
		dir := seed(t)
		path := filepath.Join(dir, "shard-0", "state-1.ckpt")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x01
		if err := os.WriteFile(path, raw, 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenShardedStore(dir, 2, 128, key); !errors.Is(err, ErrTampered) {
			t.Fatalf("corrupt snapshot: %v, want ErrTampered", err)
		}
	})

	t.Run("replayed-old-snapshot", func(t *testing.T) {
		dir := seed(t)
		// 3 epochs published; the manifest names epoch 3 (slot 1). Replay
		// epoch 2's snapshot (slot 0) into slot 1: authentic bytes, wrong
		// epoch — the AD binding must reject it.
		shard := filepath.Join(dir, "shard-0")
		old, err := os.ReadFile(filepath.Join(shard, "state-0.ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(shard, "state-1.ckpt"), old, 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenShardedStore(dir, 2, 128, key); !errors.Is(err, ErrTampered) {
			t.Fatalf("replayed snapshot: %v, want ErrTampered", err)
		}
	})

	t.Run("mangled-manifest", func(t *testing.T) {
		dir := seed(t)
		if err := os.WriteFile(filepath.Join(dir, "shard-1", manifestName), []byte("garbage"), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenShardedStore(dir, 2, 128, key); !errors.Is(err, ErrTampered) {
			t.Fatalf("mangled manifest: %v, want ErrTampered", err)
		}
	})

	t.Run("missing-snapshot", func(t *testing.T) {
		dir := seed(t)
		if err := os.Remove(filepath.Join(dir, "shard-0", "state-1.ckpt")); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenShardedStore(dir, 2, 128, key); !errors.Is(err, ErrTampered) {
			t.Fatalf("missing snapshot: %v, want ErrTampered", err)
		}
	})
}

// TestShardedStoreCorruptBucketFile: bit rot in the on-disk bucket
// store is caught by bucket authentication on the next path read.
func TestShardedStoreCorruptBucketFile(t *testing.T) {
	key := testKey()
	dir := t.TempDir()
	cli, err := OpenShardedStore(dir, 1, 128, key)
	if err != nil {
		t.Fatal(err)
	}
	const id = BlockID(3)
	if err := cli.Write(id, []byte("bit-rot target")); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one ciphertext byte in every stored record (skip the header
	// and each record's length prefix).
	path := filepath.Join(dir, "shard-0", "buckets.dat")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := fileHeaderSize; off+4 < len(raw); off += fileSlotSize {
		ln := int(uint32(raw[off])<<24 | uint32(raw[off+1])<<16 | uint32(raw[off+2])<<8 | uint32(raw[off+3]))
		if ln > 0 && off+4+ln <= len(raw) {
			raw[off+4+ln/2] ^= 0x01
		}
	}
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}

	cli2, err := OpenShardedStore(dir, 1, 128, key)
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	if _, err := cli2.Read(id); !errors.Is(err, ErrTampered) {
		t.Fatalf("corrupt bucket file read: %v, want ErrTampered", err)
	}
}

// TestShardedStoreSingleShard: K=1 durability is just a persistent
// single tree — the degenerate configuration must work.
func TestShardedStoreSingleShard(t *testing.T) {
	dir := t.TempDir()
	key := testKey()
	cli, err := OpenShardedStore(dir, 1, 64, key)
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Write(1, []byte("single")); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	cli2, err := OpenShardedStore(dir, 1, 64, key)
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	got, err := cli2.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:6]) != "single" {
		t.Fatal("persisted block lost")
	}
}
