package oram

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// Checkpointing makes the ORAM client state durable with a
// shadow-epoch scheme:
//
//   - Each checkpoint serializes one tree's private state — stash
//     blocks and the position map — and seals it with AES-GCM
//     under a key derived from the master ORAM key, binding the epoch
//     number as associated data. The sealed snapshot is the only thing
//     on disk that is trusted-state-derived; like bucket ciphertexts,
//     it leaks only its size.
//   - Snapshots alternate between two slot files (state-0.ckpt /
//     state-1.ckpt), each written to a temp file, fsynced, and renamed
//     into place, so a crash mid-write never destroys the previous
//     epoch's snapshot.
//   - A MANIFEST file (also written atomically) names the latest
//     complete epoch. Recovery reads the manifest, opens the epoch it
//     names, and authenticates it; any corruption — of the manifest,
//     the snapshot, or a replayed snapshot under the wrong epoch —
//     surfaces as ErrTampered.
//
// The bucket file is synced BEFORE the manifest is published
// (CheckpointStore.checkpoint), so a published checkpoint never
// references tree state that might not have hit the disk.
const (
	manifestName  = "MANIFEST"
	manifestMagic = "HTCKPT1\x00"
)

// ErrNoCheckpoint reports a store with no published checkpoint.
var ErrNoCheckpoint = errors.New("oram: no checkpoint")

// CheckpointStore persists one tree's stash + position map in a
// directory. It is used under its tree's lock.
type CheckpointStore struct {
	dir   string
	crypt *cryptor
	epoch uint64
}

// NewCheckpointStore opens (or initializes) a checkpoint directory.
// The sealing key is derived from the master ORAM key and the label
// (shard index), domain-separated from every bucket key.
func NewCheckpointStore(dir string, masterKey []byte, label string) (*CheckpointStore, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("oram: checkpoint dir: %w", err)
	}
	crypt, err := newCryptor(deriveShardKey(masterKey, "hardtape-oram-ckpt-"+label))
	if err != nil {
		return nil, err
	}
	cs := &CheckpointStore{dir: dir, crypt: crypt}
	epoch, err := cs.readManifest()
	if err != nil && !errors.Is(err, ErrNoCheckpoint) {
		return nil, err
	}
	cs.epoch = epoch
	return cs, nil
}

// Epoch returns the latest published checkpoint epoch (0 = none).
func (cs *CheckpointStore) Epoch() uint64 { return cs.epoch }

// slotPath returns the shadow slot file an epoch lives in.
func (cs *CheckpointStore) slotPath(epoch uint64) string {
	return filepath.Join(cs.dir, fmt.Sprintf("state-%d.ckpt", epoch%2))
}

// readManifest returns the published epoch.
func (cs *CheckpointStore) readManifest() (uint64, error) {
	raw, err := os.ReadFile(filepath.Join(cs.dir, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, ErrNoCheckpoint
	}
	if err != nil {
		return 0, fmt.Errorf("oram: read manifest: %w", err)
	}
	if len(raw) != 16 || string(raw[:8]) != manifestMagic {
		return 0, fmt.Errorf("%w: malformed checkpoint manifest", ErrTampered)
	}
	epoch := binary.BigEndian.Uint64(raw[8:])
	if epoch == 0 {
		return 0, fmt.Errorf("%w: manifest names epoch 0", ErrTampered)
	}
	return epoch, nil
}

// writeAtomic writes data to name via a temp file + fsync + rename, the
// classic crash-safe publish.
func (cs *CheckpointStore) writeAtomic(name string, data []byte) error {
	tmp := filepath.Join(cs.dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return fmt.Errorf("oram: checkpoint write: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("oram: checkpoint write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("oram: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("oram: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(cs.dir, name)); err != nil {
		return fmt.Errorf("oram: checkpoint publish: %w", err)
	}
	return nil
}

// checkpoint seals and publishes the tree's current stash + position
// map as the next epoch. Bucket durability comes first: a published
// checkpoint must never reference tree state still sitting in the page
// cache. The caller holds t.mu.
func (cs *CheckpointStore) checkpoint(t *tree) error {
	if fs, ok := t.server.(interface{ Sync() error }); ok {
		if err := fs.Sync(); err != nil {
			return fmt.Errorf("oram: sync shard %d: %w", t.shard, err)
		}
	}
	plain := make([]byte, 0, 16+len(t.stash)*(16+BlockSize)+len(t.pos)*16)
	var u [8]byte
	binary.BigEndian.PutUint64(u[:], uint64(len(t.stash)))
	plain = append(plain, u[:]...)
	for id, blk := range t.stash {
		binary.BigEndian.PutUint64(u[:], uint64(id))
		plain = append(plain, u[:]...)
		binary.BigEndian.PutUint64(u[:], blk.leaf)
		plain = append(plain, u[:]...)
		plain = append(plain, blk.data...)
	}
	binary.BigEndian.PutUint64(u[:], uint64(len(t.pos)))
	plain = append(plain, u[:]...)
	for id, leaf := range t.pos {
		binary.BigEndian.PutUint64(u[:], uint64(id))
		plain = append(plain, u[:]...)
		binary.BigEndian.PutUint64(u[:], leaf)
		plain = append(plain, u[:]...)
	}

	epoch := cs.epoch + 1
	sealed, err := cs.crypt.seal(epoch, plain)
	if err != nil {
		return err
	}
	if err := cs.writeAtomic(filepath.Base(cs.slotPath(epoch)), sealed); err != nil {
		return err
	}
	var manifest [16]byte
	copy(manifest[:8], manifestMagic)
	binary.BigEndian.PutUint64(manifest[8:], epoch)
	if err := cs.writeAtomic(manifestName, manifest[:]); err != nil {
		return err
	}
	cs.epoch = epoch
	return nil
}

// restore loads the latest published checkpoint into the tree,
// replacing its stash and position map contents. It returns false
// (and no error) when the store has never checkpointed; corruption of
// the manifest or snapshot returns ErrTampered.
func (cs *CheckpointStore) restore(t *tree) (bool, error) {
	epoch, err := cs.readManifest()
	if errors.Is(err, ErrNoCheckpoint) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	sealed, err := os.ReadFile(cs.slotPath(epoch))
	if errors.Is(err, fs.ErrNotExist) {
		return false, fmt.Errorf("%w: manifest names epoch %d but its snapshot is missing", ErrTampered, epoch)
	}
	if err != nil {
		return false, fmt.Errorf("oram: read checkpoint: %w", err)
	}
	// The epoch is the associated data: a valid snapshot moved to the
	// wrong slot, or an old snapshot replayed under a newer manifest,
	// fails authentication exactly like a flipped byte.
	plain, err := cs.crypt.open(epoch, sealed)
	if err != nil {
		return false, err
	}
	off := 0
	readU64 := func() (uint64, bool) {
		if off+8 > len(plain) {
			return 0, false
		}
		v := binary.BigEndian.Uint64(plain[off:])
		off += 8
		return v, true
	}
	nStash, ok1 := readU64()
	if !ok1 {
		return false, fmt.Errorf("%w: truncated checkpoint", ErrTampered)
	}
	for i := uint64(0); i < nStash; i++ {
		id, ok1 := readU64()
		leaf, ok2 := readU64()
		if !ok1 || !ok2 || off+BlockSize > len(plain) {
			return false, fmt.Errorf("%w: truncated checkpoint stash", ErrTampered)
		}
		blk := getBlockStruct()
		blk.id, blk.leaf = BlockID(id), leaf
		copy(blk.data, plain[off:off+BlockSize])
		off += BlockSize
		t.stash[blk.id] = blk //hardtape:pool-ok stash takes custody; eviction recycles via putBlockStruct
	}
	nPos, ok1 := readU64()
	if !ok1 {
		return false, fmt.Errorf("%w: truncated checkpoint", ErrTampered)
	}
	for i := uint64(0); i < nPos; i++ {
		id, ok1 := readU64()
		leaf, ok2 := readU64()
		if !ok1 || !ok2 {
			return false, fmt.Errorf("%w: truncated checkpoint posmap", ErrTampered)
		}
		t.pos[BlockID(id)] = leaf
	}
	if off != len(plain) {
		return false, fmt.Errorf("%w: checkpoint trailing bytes", ErrTampered)
	}
	cs.epoch = epoch
	return true, nil
}

// Checkpoint syncs every durable server and publishes each tree's
// state as a new epoch, one tree at a time under that tree's lock.
// Requires checkpoint stores (OpenShardedStore). A failed client never
// checkpoints: a poisoned stash must not be published as a new epoch.
func (c *Client) Checkpoint() error {
	if err := c.latched(); err != nil {
		return err
	}
	if c.stores == nil {
		return fmt.Errorf("%w: no checkpoint stores attached", ErrShards)
	}
	for i, cs := range c.stores {
		if err := c.checkpointTree(cs, c.trees[i]); err != nil {
			return err
		}
	}
	return nil
}

// checkpointTree is Checkpoint for one tree.
func (c *Client) checkpointTree(cs *CheckpointStore, t *tree) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := c.latched(); err != nil {
		return err
	}
	return cs.checkpoint(t)
}

// OpenShardedStore opens (or creates) a persistent ORAM under dir: one
// disk-backed bucket file and one checkpoint store per shard, with the
// total block capacity split evenly across shards. When the directory
// holds published checkpoints, every tree's stash and position map are
// restored, so the client resumes mid-workload exactly where the last
// checkpoint left it. Checkpoints publish after every round — the
// cadence that makes recovery exact to the last completed round.
func OpenShardedStore(dir string, shards int, capacity uint64, key []byte, opts ...ClientOption) (*Client, error) {
	if shards < 1 {
		return nil, fmt.Errorf("%w: %d shards", ErrShards, shards)
	}
	perShard := max((capacity+uint64(shards)-1)/uint64(shards), 2)
	servers := make([]Server, 0, shards)
	stores := make([]*CheckpointStore, 0, shards)
	fail := func(err error) (*Client, error) {
		for _, srv := range servers {
			srv.(*FileServer).Close()
		}
		return nil, err
	}
	for i := 0; i < shards; i++ {
		shardDir := filepath.Join(dir, fmt.Sprintf("shard-%d", i))
		if err := os.MkdirAll(shardDir, 0o700); err != nil {
			return fail(fmt.Errorf("oram: shard dir: %w", err))
		}
		srv, err := OpenFileServer(filepath.Join(shardDir, "buckets.dat"), perShard)
		if err != nil {
			return fail(err)
		}
		servers = append(servers, srv)
		cs, err := NewCheckpointStore(shardDir, key, fmt.Sprintf("%d", i))
		if err != nil {
			return fail(err)
		}
		stores = append(stores, cs)
	}
	c, err := NewClient(servers, key, opts...)
	if err != nil {
		return fail(err)
	}
	c.stores = stores
	for i, cs := range stores {
		if _, err := cs.restore(c.trees[i]); err != nil {
			//hardtape:secret-ok the wrapped error carries epoch/file context only, never key or snapshot bytes
			return fail(fmt.Errorf("oram: recover shard %d: %w", i, err))
		}
	}
	return c, nil
}
