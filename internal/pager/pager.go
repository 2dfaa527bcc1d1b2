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
// the response-size side channel the paper describes.
package pager

import (
	"context"
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
	// ReadPage fetches one page on behalf of ctx's request (an ORAM
	// round under a traced ctx is a span of it).
	ReadPage(ctx context.Context, key PageKey) ([]byte, error)
	// ReadPages fetches many pages in as few backend round trips as
	// the transport allows (one per batch chunk on the ORAM). The
	// result is aligned with keys; missing pages are nil entries, not
	// errors — the trusted dictionary already knows absence without
	// touching the backend. ctx attributes the rounds as in ReadPage.
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

// ReadPage implements Backend.
func (p *PlainBackend) ReadPage(_ context.Context, key PageKey) ([]byte, error) {
	page, ok := p.pages[key]
	if !ok {
		return nil, ErrPageNotFound
	}
	out := make([]byte, len(page))
	copy(out, page)
	return out, nil
}

// ReadPages implements Backend.
func (p *PlainBackend) ReadPages(ctx context.Context, keys []PageKey) ([][]byte, error) {
	out := make([][]byte, len(keys))
	for i, key := range keys {
		if page, err := p.ReadPage(ctx, key); err == nil {
			out[i] = page
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
// unreachable.
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

// ReadPage implements Backend. Unknown keys perform no ORAM access:
// the trusted dictionary already knows the page does not exist.
func (o *ORAMBackend) ReadPage(ctx context.Context, key PageKey) ([]byte, error) {
	id, ok := o.ids[key]
	if !ok {
		return nil, ErrPageNotFound
	}
	data, err := o.client.Read(ctx, id)
	if errors.Is(err, oram.ErrNotFound) {
		return nil, ErrPageNotFound
	}
	return data, err
}

// oramBatchChunk caps one ORAM access batch: large enough to amortize
// the link RTT, small enough to bound the transient stash growth and
// stay under the wire's per-message path limit.
const oramBatchChunk = 16

// ReadPages implements Backend via the client's batched access path:
// every chunk of known pages costs one link round trip instead of one
// per page. Unknown keys contribute nil entries without any ORAM
// traffic (as in ReadPage, the trusted dictionary decides absence).
func (o *ORAMBackend) ReadPages(ctx context.Context, keys []PageKey) ([][]byte, error) {
	out := make([][]byte, len(keys))
	ids := make([]oram.BlockID, 0, len(keys))
	slots := make([]int, 0, len(keys))
	for i, key := range keys {
		if id, ok := o.ids[key]; ok {
			ids = append(ids, id)
			slots = append(slots, i)
		}
	}
	for start := 0; start < len(ids); start += oramBatchChunk {
		end := start + oramBatchChunk
		if end > len(ids) {
			end = len(ids)
		}
		data, err := o.client.ReadMany(ctx, ids[start:end])
		if err != nil {
			return nil, err
		}
		for j, page := range data {
			out[slots[start+j]] = page
		}
	}
	return out, nil
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
	for start := 0; start < len(ops); start += oramBatchChunk {
		end := start + oramBatchChunk
		if end > len(ops) {
			end = len(ops)
		}
		if _, err := o.client.AccessBatch(context.Background(), ops[start:end]); err != nil {
			return err
		}
	}
	return nil
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

// StorageGroupKey returns the group id for a storage key (low 5 bits
// cleared → 32 consecutive keys share a group).
func StorageGroupKey(key types.Hash) (group types.Hash, slot int) {
	return storageGroupKeyN(key, RecordsPerPage)
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

// ReadAccountMeta fetches an account's K-V data on behalf of ctx's
// request.
func (s *Store) ReadAccountMeta(ctx context.Context, addr types.Address) (*AccountMeta, error) {
	page, err := s.backend.ReadPage(ctx, PageKey{Kind: KindAccountMeta, Addr: addr})
	if err != nil {
		return nil, err
	}
	return decodeMeta(page)
}

// ReadStorageRecord reads one record on behalf of ctx's request. Absent
// groups return the zero hash (Ethereum semantics) with found=false.
func (s *Store) ReadStorageRecord(ctx context.Context, addr types.Address, key types.Hash) (types.Hash, bool, error) {
	group, slot := storageGroupKeyN(key, s.groupSize)
	page, err := s.backend.ReadPage(ctx, PageKey{Kind: KindStorageGroup, Addr: addr, Group: group})
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
	return s.backend.ReadPage(ctx, PageKey{Kind: KindCodePage, CodeHash: codeHash, Index: index})
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
// of ctx's request.
func (s *Store) ReadCode(ctx context.Context, codeHash types.Hash, codeLen uint32) ([]byte, error) {
	if codeLen == 0 {
		return nil, nil
	}
	out := make([]byte, 0, codeLen)
	for i := uint32(0); i < CodePages(codeLen); i++ {
		page, err := s.ReadCodePage(ctx, codeHash, i)
		if err != nil {
			return nil, fmt.Errorf("pager: code page %d: %w", i, err)
		}
		out = append(out, page...)
	}
	return out[:codeLen], nil
}
