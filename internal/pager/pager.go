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
// variant used by the paper's -raw/-E/-ES configurations.
type Backend interface {
	ReadPage(key PageKey) ([]byte, error)
	WritePage(key PageKey, data []byte) error
	// ReadPages fetches many pages in as few backend round trips as
	// the transport allows (one per batch chunk on the ORAM). The
	// result is aligned with keys; missing pages are nil entries, not
	// errors — the trusted dictionary already knows absence without
	// touching the backend. ctx attributes the rounds to the request
	// they serve (an ORAM round under a traced ctx is a span of it).
	ReadPages(ctx context.Context, keys []PageKey) ([][]byte, error)
	// WritePages stores many pages in as few backend round trips as
	// the transport allows.
	WritePages(keys []PageKey, pages [][]byte) error
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
func (p *PlainBackend) ReadPage(key PageKey) ([]byte, error) {
	page, ok := p.pages[key]
	if !ok {
		return nil, ErrPageNotFound
	}
	out := make([]byte, len(page))
	copy(out, page)
	return out, nil
}

// WritePage implements Backend.
func (p *PlainBackend) WritePage(key PageKey, data []byte) error {
	if len(data) != PageSize {
		return fmt.Errorf("%w: size %d", ErrBadPage, len(data))
	}
	cp := make([]byte, PageSize)
	copy(cp, data)
	p.pages[key] = cp
	return nil
}

// ReadPages implements Backend.
func (p *PlainBackend) ReadPages(_ context.Context, keys []PageKey) ([][]byte, error) {
	out := make([][]byte, len(keys))
	for i, key := range keys {
		page, err := p.ReadPage(key)
		if errors.Is(err, ErrPageNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out[i] = page
	}
	return out, nil
}

// WritePages implements Backend.
func (p *PlainBackend) WritePages(keys []PageKey, pages [][]byte) error {
	if len(pages) != len(keys) {
		return fmt.Errorf("%w: %d pages for %d keys", ErrBadPage, len(pages), len(keys))
	}
	for i, key := range keys {
		if err := p.WritePage(key, pages[i]); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the stored page count.
func (p *PlainBackend) Len() int { return len(p.pages) }

// ORAMBackend maps page keys to dense ORAM block ids. The dictionary
// is trusted client state (like the position map); Ethereum's key
// space is sparse, so ids are assigned on first write.
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
// the trusted dictionary already knows the page does not exist, so no
// information crosses the boundary.
func (o *ORAMBackend) ReadPage(key PageKey) ([]byte, error) {
	id, ok := o.ids[key]
	if !ok {
		return nil, ErrPageNotFound
	}
	data, err := o.client.Read(id)
	if errors.Is(err, oram.ErrNotFound) {
		return nil, ErrPageNotFound
	}
	return data, err
}

// WritePage implements Backend.
func (o *ORAMBackend) WritePage(key PageKey, data []byte) error {
	if len(data) != PageSize {
		return fmt.Errorf("%w: size %d", ErrBadPage, len(data))
	}
	id, ok := o.ids[key]
	if !ok {
		id = o.next
		o.next++
		o.ids[key] = id
	}
	return o.client.Write(id, data)
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

// WritePages implements Backend via the client's batched access path.
func (o *ORAMBackend) WritePages(keys []PageKey, pages [][]byte) error {
	if len(pages) != len(keys) {
		return fmt.Errorf("%w: %d pages for %d keys", ErrBadPage, len(pages), len(keys))
	}
	ops := make([]oram.BatchOp, 0, len(keys))
	for i, key := range keys {
		if len(pages[i]) != PageSize {
			return fmt.Errorf("%w: size %d", ErrBadPage, len(pages[i]))
		}
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

// Pages returns the number of mapped pages.
func (o *ORAMBackend) Pages() int { return len(o.ids) }

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

// WriteAccountMeta stores an account's K-V data.
func (s *Store) WriteAccountMeta(addr types.Address, meta *AccountMeta) error {
	return s.backend.WritePage(PageKey{Kind: KindAccountMeta, Addr: addr}, encodeMeta(meta))
}

// ReadAccountMeta fetches an account's K-V data.
func (s *Store) ReadAccountMeta(addr types.Address) (*AccountMeta, error) {
	page, err := s.backend.ReadPage(PageKey{Kind: KindAccountMeta, Addr: addr})
	if err != nil {
		return nil, err
	}
	return decodeMeta(page)
}

// WriteStorageRecord writes one record, read-modify-writing its group
// page (creating it when absent).
func (s *Store) WriteStorageRecord(addr types.Address, key, value types.Hash) error {
	group, slot := storageGroupKeyN(key, s.groupSize)
	pk := PageKey{Kind: KindStorageGroup, Addr: addr, Group: group}
	page, err := s.backend.ReadPage(pk)
	if errors.Is(err, ErrPageNotFound) {
		page = make([]byte, PageSize)
	} else if err != nil {
		return err
	}
	copy(page[slot*32:(slot+1)*32], value[:])
	return s.backend.WritePage(pk, page)
}

// ReadStorageRecord reads one record. Absent groups return the zero
// hash (Ethereum semantics) with found=false.
func (s *Store) ReadStorageRecord(addr types.Address, key types.Hash) (types.Hash, bool, error) {
	group, slot := storageGroupKeyN(key, s.groupSize)
	page, err := s.backend.ReadPage(PageKey{Kind: KindStorageGroup, Addr: addr, Group: group})
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

// WriteCode splits contract code into pages and stores them in one
// batched backend write (one round trip per batch chunk on the ORAM —
// this is block sync's hot path).
func (s *Store) WriteCode(codeHash types.Hash, code []byte) error {
	n := int(CodePages(uint32(len(code))))
	if n == 0 {
		n = 1
	}
	keys := make([]PageKey, n)
	pages := make([][]byte, n)
	for i := 0; i < n; i++ {
		page := make([]byte, PageSize)
		start := i * PageSize
		if start < len(code) {
			end := start + PageSize
			if end > len(code) {
				end = len(code)
			}
			copy(page, code[start:end])
		}
		keys[i] = PageKey{Kind: KindCodePage, CodeHash: codeHash, Index: uint32(i)}
		pages[i] = page
	}
	return s.backend.WritePages(keys, pages)
}

// CodePages returns how many pages a code of the given length occupies.
func CodePages(codeLen uint32) uint32 {
	if codeLen == 0 {
		return 0
	}
	return (codeLen + PageSize - 1) / PageSize
}

// ReadCodePage fetches one code page.
func (s *Store) ReadCodePage(codeHash types.Hash, index uint32) ([]byte, error) {
	return s.backend.ReadPage(PageKey{Kind: KindCodePage, CodeHash: codeHash, Index: index})
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

// StorageRecord is one key/value pair for WriteStorageRecords.
type StorageRecord struct {
	Key   types.Hash
	Value types.Hash
}

// WriteStorageRecords writes a set of records for one account with
// batched backend traffic: the affected group pages are fetched in one
// batched read, modified in place, and written back in one batched
// write — block sync pays ~2 round trips per account instead of 2 per
// record.
func (s *Store) WriteStorageRecords(addr types.Address, recs []StorageRecord) error {
	if len(recs) == 0 {
		return nil
	}
	keys := make([]PageKey, 0, len(recs))
	keyIdx := make(map[PageKey]int, len(recs))
	slots := make([]int, len(recs))
	for i, rec := range recs {
		group, slot := storageGroupKeyN(rec.Key, s.groupSize)
		pk := PageKey{Kind: KindStorageGroup, Addr: addr, Group: group}
		j, ok := keyIdx[pk]
		if !ok {
			j = len(keys)
			keyIdx[pk] = j
			keys = append(keys, pk)
		}
		slots[i] = j*RecordsPerPage + slot
	}
	pages, err := s.backend.ReadPages(context.Background(), keys)
	if err != nil {
		return err
	}
	for i := range pages {
		if pages[i] == nil {
			pages[i] = make([]byte, PageSize)
		}
	}
	for i, rec := range recs {
		page := pages[slots[i]/RecordsPerPage]
		slot := slots[i] % RecordsPerPage
		copy(page[slot*32:(slot+1)*32], rec.Value[:])
	}
	return s.backend.WritePages(keys, pages)
}

// ReadCode reassembles full contract code of a known length.
func (s *Store) ReadCode(codeHash types.Hash, codeLen uint32) ([]byte, error) {
	if codeLen == 0 {
		return nil, nil
	}
	out := make([]byte, 0, codeLen)
	for i := uint32(0); i < CodePages(codeLen); i++ {
		page, err := s.ReadCodePage(codeHash, i)
		if err != nil {
			return nil, fmt.Errorf("pager: code page %d: %w", i, err)
		}
		out = append(out, page...)
	}
	return out[:codeLen], nil
}
