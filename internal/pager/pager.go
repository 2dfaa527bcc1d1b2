// Package pager reassembles the Ethereum world state into the fixed
// 1 KB pages HarDTAPE stores in its Path ORAM (paper §IV-D):
//
//   - contract bytecode is split into 1 KB code pages;
//   - storage records are grouped 32-per-page by consecutive keys
//     (Solidity assigns adjacent slots to adjacent keys);
//   - per-account metadata (balance, nonce, code length, code hash)
//     occupies one page.
//
// Both query types therefore produce identical 1 KB responses, closing
// the response-size side channel the paper describes. Every page read,
// present or absent, is one backend read: on the ORAM, one access.
package pager

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"hardtape/internal/oram"
	"hardtape/internal/types"
	"hardtape/internal/uint256"
)

// PageSize is the fixed page size (equals the ORAM block size).
const PageSize = oram.BlockSize

// RecordsPerPage is how many 32-byte storage records share one page.
const RecordsPerPage = 32

// PageKind discriminates page types. The kind never leaves the trusted
// side: on the wire every page is an opaque 1 KB ORAM block.
type PageKind uint8

// Page kinds.
const (
	KindAccountMeta PageKind = iota + 1
	KindStorageGroup
	KindCodePage
)

// PageKey identifies one page of the re-assembled world state.
type PageKey struct {
	Kind PageKind
	// Addr is the account (meta and storage pages).
	Addr types.Address
	// Group is the storage group id: key with the low 5 bits cleared
	// (i.e. key / 32), identifying 32 consecutive slots.
	Group types.Hash
	// CodeHash identifies the contract for code pages.
	CodeHash types.Hash
	// Index is the code page index.
	Index uint32
}

// Errors.
var (
	ErrPageNotFound = errors.New("pager: page not found")
	ErrBadPage      = errors.New("pager: malformed page")
)

// Backend stores opaque fixed-size pages. The ORAM client implements
// the oblivious version; PlainBackend is the prefetched-to-memory
// variant used by the paper's -raw/-E/-ES configurations. Pages are
// written blind, whole, and never read back by the writer: a store is
// filled once from verified state and then only read.
type Backend interface {
	// ReadPages fetches pages on behalf of ctx's request (an ORAM round
	// under a traced ctx is a span of it) in as few backend round trips
	// as the transport allows (one per batch chunk on the ORAM). It is
	// the one read method: a single read is a batch of one. The result
	// is aligned with keys; missing pages are nil entries, not errors,
	// and cost the backend the same as present ones.
	ReadPages(ctx context.Context, keys []PageKey) ([][]byte, error)
	// WritePages stores many pages in as few backend round trips as
	// the transport allows.
	WritePages(keys []PageKey, pages [][]byte) error
	// Len returns the number of pages stored.
	Len() int
}

// PlainBackend is a direct in-memory page store (no obliviousness).
type PlainBackend struct {
	pages map[PageKey][]byte
}

var _ Backend = (*PlainBackend)(nil)

// NewPlainBackend returns an empty plain store.
func NewPlainBackend() *PlainBackend {
	return &PlainBackend{pages: make(map[PageKey][]byte)}
}

// ReadPages implements Backend.
func (p *PlainBackend) ReadPages(_ context.Context, keys []PageKey) ([][]byte, error) {
	out := make([][]byte, len(keys))
	for i, key := range keys {
		if page, ok := p.pages[key]; ok {
			out[i] = append([]byte(nil), page...)
		}
	}
	return out, nil
}

// WritePages implements Backend.
func (p *PlainBackend) WritePages(keys []PageKey, pages [][]byte) error {
	if err := checkPages(keys, pages); err != nil {
		return err
	}
	for i, key := range keys {
		p.pages[key] = append([]byte(nil), pages[i]...)
	}
	return nil
}

// Len implements Backend.
func (p *PlainBackend) Len() int { return len(p.pages) }

// checkPages rejects a write whose pages do not pair up with its keys
// or are not exactly one page each, before anything is stored.
func checkPages(keys []PageKey, pages [][]byte) error {
	if len(pages) != len(keys) {
		return fmt.Errorf("%w: %d pages for %d keys", ErrBadPage, len(pages), len(keys))
	}
	for _, page := range pages {
		if len(page) != PageSize {
			return fmt.Errorf("%w: size %d", ErrBadPage, len(page))
		}
	}
	return nil
}

// ORAMBackend maps page keys to dense ORAM block ids. The dictionary
// is trusted client state (like the position map); Ethereum's key
// space is sparse, so ids are assigned on first write, from 0. A new
// ORAMBackend over a client that already holds blocks reuses their ids
// and never reads them: the blocks it does not overwrite are
// unreachable. A key the dictionary lacks still costs one ORAM read,
// of its absent id (absentID).
type ORAMBackend struct {
	client *oram.Client
	ids    map[PageKey]oram.BlockID
	next   oram.BlockID
}

var _ Backend = (*ORAMBackend)(nil)

// NewORAMBackend wraps the ORAM client; the pager is agnostic to how
// many trees the client partitions its blocks across.
func NewORAMBackend(client *oram.Client) *ORAMBackend {
	return &ORAMBackend{client: client, ids: make(map[PageKey]oram.BlockID)}
}

// oramBatchChunk caps one ORAM access batch: large enough to amortize
// the link RTT, small enough to bound the transient stash growth and
// stay under the wire's per-message path limit.
const oramBatchChunk = 16

// absentBit is set in every absent id and in no dense id: WritePages
// counts dense ids up from 0.
const absentBit = oram.BlockID(1) << 63

// absentID is the never-written block a read of an unmapped key
// touches: a fixed function of the key, so its tree is too, as a
// present page's tree is of its id. Bit 62 stays clear, so it is never
// the ORAM's all-ones dummy id. The client keeps no state for it.
func absentID(key PageKey) oram.BlockID {
	var buf [1 + types.AddressLength + 2*types.HashLength + 4]byte
	buf[0] = byte(key.Kind)
	n := 1 + copy(buf[1:], key.Addr[:])
	n += copy(buf[n:], key.Group[:])
	n += copy(buf[n:], key.CodeHash[:])
	binary.BigEndian.PutUint32(buf[n:], key.Index)
	h := sha256.Sum256(buf[:])
	return absentBit | oram.BlockID(binary.BigEndian.Uint64(h[:8])>>2)
}

// ReadPages implements Backend: every key is exactly one ORAM read in
// the same chunked round, present or absent, so the server sees one
// uniformly random path per key whatever the dictionary holds. An
// absent page comes back nil from its never-written id.
func (o *ORAMBackend) ReadPages(ctx context.Context, keys []PageKey) ([][]byte, error) {
	ops := make([]oram.BatchOp, len(keys))
	for i, key := range keys {
		id, ok := o.ids[key]
		if !ok {
			id = absentID(key)
		}
		ops[i] = oram.BatchOp{Op: oram.OpRead, ID: id}
	}
	return o.access(ctx, ops)
}

// WritePages implements Backend via the client's batched access path:
// one ORAM access per page.
func (o *ORAMBackend) WritePages(keys []PageKey, pages [][]byte) error {
	if err := checkPages(keys, pages); err != nil {
		return err
	}
	ops := make([]oram.BatchOp, 0, len(keys))
	for i, key := range keys {
		id, ok := o.ids[key]
		if !ok {
			id = o.next
			o.next++
			o.ids[key] = id
		}
		ops = append(ops, oram.BatchOp{Op: oram.OpWrite, ID: id, Data: pages[i]})
	}
	_, err := o.access(context.Background(), ops)
	return err
}

// access runs ops in rounds of at most oramBatchChunk, one link round
// trip each; the result is aligned with ops.
func (o *ORAMBackend) access(ctx context.Context, ops []oram.BatchOp) ([][]byte, error) {
	if len(ops) <= oramBatchChunk {
		return o.client.AccessBatch(ctx, ops)
	}
	out := make([][]byte, 0, len(ops))
	for start := 0; start < len(ops); start += oramBatchChunk {
		data, err := o.client.AccessBatch(ctx, ops[start:min(start+oramBatchChunk, len(ops))])
		if err != nil {
			return nil, err
		}
		out = append(out, data...)
	}
	return out, nil
}

// Len implements Backend: the number of mapped pages, which is also the
// number of live ORAM blocks.
func (o *ORAMBackend) Len() int { return len(o.ids) }

// AccountMeta is the K-V style account data (balance, nonce, code
// length, code hash) packed into one page.
type AccountMeta struct {
	Balance  *uint256.Int
	Nonce    uint64
	CodeLen  uint32
	CodeHash types.Hash
}

// encodeMeta packs AccountMeta into a page.
func encodeMeta(m *AccountMeta) []byte {
	page := make([]byte, PageSize)
	bal := m.Balance.Bytes32()
	copy(page[0:32], bal[:])
	binary.BigEndian.PutUint64(page[32:40], m.Nonce)
	binary.BigEndian.PutUint32(page[40:44], m.CodeLen)
	copy(page[44:76], m.CodeHash[:])
	return page
}

// decodeMeta unpacks a meta page.
func decodeMeta(page []byte) (*AccountMeta, error) {
	if len(page) != PageSize {
		return nil, ErrBadPage
	}
	return &AccountMeta{
		Balance:  new(uint256.Int).SetBytes(page[0:32]),
		Nonce:    binary.BigEndian.Uint64(page[32:40]),
		CodeLen:  binary.BigEndian.Uint32(page[40:44]),
		CodeHash: types.BytesToHash(page[44:76]),
	}, nil
}

// storageGroupKeyN groups `gs` consecutive keys (gs a power of two
// ≤ 32). gs=1 disables grouping — the ablation baseline.
func storageGroupKeyN(key types.Hash, gs int) (group types.Hash, slot int) {
	group = key
	mask := byte(gs - 1)
	slot = int(group[31] & mask)
	group[31] &^= mask
	return group, slot
}

// Store is the trusted paging layer: it translates world-state reads
// and writes into fixed-size page operations on a Backend.
type Store struct {
	backend   Backend
	groupSize int
}

// NewStore wraps a backend with the paper's 32-records-per-page
// grouping.
func NewStore(backend Backend) *Store {
	return &Store{backend: backend, groupSize: RecordsPerPage}
}

// NewStoreGrouped wraps a backend with a custom group size (power of
// two in [1, 32]) — used by the grouping ablation.
func NewStoreGrouped(backend Backend, groupSize int) (*Store, error) {
	switch groupSize {
	case 1, 2, 4, 8, 16, 32:
		return &Store{backend: backend, groupSize: groupSize}, nil
	default:
		return nil, fmt.Errorf("pager: group size %d not a power of two in [1,32]", groupSize)
	}
}

// Len returns the number of pages the store holds.
func (s *Store) Len() int { return s.backend.Len() }

// WritePages stores whole pages blind, in one batched backend write
// (one round trip per batch chunk on the ORAM). Nothing is read back:
// the caller builds each page complete (AccountPages, SplitCode).
func (s *Store) WritePages(keys []PageKey, pages [][]byte) error {
	return s.backend.WritePages(keys, pages)
}

// AccountPages builds one account's K-V pages under this store's
// grouping, meta page first: then one page per storage group recs
// touches, each zero-filled and then filled from recs. Written whole,
// they hold exactly recs — so recs must be the account's full record
// set: a record it omits reads as zero, and a group it does not touch
// is absent.
func (s *Store) AccountPages(addr types.Address, meta *AccountMeta, recs []StorageRecord) ([]PageKey, [][]byte) {
	keys := []PageKey{{Kind: KindAccountMeta, Addr: addr}}
	pages := [][]byte{encodeMeta(meta)}
	index := make(map[types.Hash]int, len(recs))
	for _, rec := range recs {
		group, slot := storageGroupKeyN(rec.Key, s.groupSize)
		i, ok := index[group]
		if !ok {
			i = len(keys)
			index[group] = i
			keys = append(keys, PageKey{Kind: KindStorageGroup, Addr: addr, Group: group})
			pages = append(pages, make([]byte, PageSize))
		}
		copy(pages[i][slot*32:(slot+1)*32], rec.Value[:])
	}
	return keys, pages
}

// readPage is a single page read: the backend's batch of one, a nil
// entry being ErrPageNotFound.
func (s *Store) readPage(ctx context.Context, key PageKey) ([]byte, error) {
	pages, err := s.backend.ReadPages(ctx, []PageKey{key})
	if err != nil {
		return nil, err
	}
	if pages[0] == nil {
		return nil, ErrPageNotFound
	}
	return pages[0], nil
}

// ReadAccountMeta fetches an account's K-V data on behalf of ctx's
// request.
func (s *Store) ReadAccountMeta(ctx context.Context, addr types.Address) (*AccountMeta, error) {
	page, err := s.readPage(ctx, PageKey{Kind: KindAccountMeta, Addr: addr})
	if err != nil {
		return nil, err
	}
	return decodeMeta(page)
}

// ReadStorageRecord reads one record on behalf of ctx's request. Absent
// groups return the zero hash (Ethereum semantics) with found=false.
func (s *Store) ReadStorageRecord(ctx context.Context, addr types.Address, key types.Hash) (types.Hash, bool, error) {
	group, slot := storageGroupKeyN(key, s.groupSize)
	page, err := s.readPage(ctx, PageKey{Kind: KindStorageGroup, Addr: addr, Group: group})
	if errors.Is(err, ErrPageNotFound) {
		return types.Hash{}, false, nil
	}
	if err != nil {
		return types.Hash{}, false, err
	}
	return types.BytesToHash(page[slot*32 : (slot+1)*32]), true, nil
}

// GroupKey returns the group page identifier of a storage key under
// this store's grouping (records sharing it arrive in one page fetch).
func (s *Store) GroupKey(key types.Hash) types.Hash {
	g, _ := storageGroupKeyN(key, s.groupSize)
	return g
}

// SplitCode builds contract code's pages, zero-padding the last.
func SplitCode(codeHash types.Hash, code []byte) ([]PageKey, [][]byte) {
	n := int(CodePages(uint32(len(code))))
	keys := make([]PageKey, n)
	pages := make([][]byte, n)
	for i := range keys {
		pages[i] = make([]byte, PageSize)
		copy(pages[i], code[i*PageSize:])
		keys[i] = PageKey{Kind: KindCodePage, CodeHash: codeHash, Index: uint32(i)}
	}
	return keys, pages
}

// CodePages returns how many pages a code of the given length occupies.
func CodePages(codeLen uint32) uint32 {
	if codeLen == 0 {
		return 0
	}
	return (codeLen + PageSize - 1) / PageSize
}

// ReadCodePage fetches one code page on behalf of ctx's request.
func (s *Store) ReadCodePage(ctx context.Context, codeHash types.Hash, index uint32) ([]byte, error) {
	return s.readPage(ctx, PageKey{Kind: KindCodePage, CodeHash: codeHash, Index: index})
}

// ReadCodePages fetches many code pages of one contract through the
// backend's batched read path on behalf of ctx's request. The result is
// aligned with indices; missing pages are nil entries.
func (s *Store) ReadCodePages(ctx context.Context, codeHash types.Hash, indices []uint32) ([][]byte, error) {
	keys := make([]PageKey, len(indices))
	for i, idx := range indices {
		keys[i] = PageKey{Kind: KindCodePage, CodeHash: codeHash, Index: idx}
	}
	return s.backend.ReadPages(ctx, keys)
}

// StorageRecord is one key/value pair for AccountPages.
type StorageRecord struct {
	Key   types.Hash
	Value types.Hash
}

// ReadCode reassembles full contract code of a known length on behalf
// of ctx's request, reading its pages in one batch.
func (s *Store) ReadCode(ctx context.Context, codeHash types.Hash, codeLen uint32) ([]byte, error) {
	if codeLen == 0 {
		return nil, nil
	}
	indices := make([]uint32, CodePages(codeLen))
	for i := range indices {
		indices[i] = uint32(i)
	}
	pages, err := s.ReadCodePages(ctx, codeHash, indices)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(pages)*PageSize)
	for i, page := range pages {
		if page == nil {
			return nil, fmt.Errorf("pager: code page %d: %w", i, ErrPageNotFound)
		}
		out = append(out, page...)
	}
	return out[:codeLen], nil
}
