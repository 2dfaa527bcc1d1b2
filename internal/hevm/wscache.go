package hevm

import (
	"container/list"

	"hardtape/internal/types"
)

// WSCacheKey identifies one cached world-state record: an account's
// balance/nonce/meta (Key zero) or a storage record.
type WSCacheKey struct {
	Addr types.Address
	Key  types.Hash
	// Meta distinguishes the account-meta record from storage slot 0.
	Meta bool
}

// WSCache is the L1 world-state cache: 4 KB ≙ 64 records of 32 bytes
// plus tags (paper §IV-B). It is a plain LRU; a miss raises an
// exception to the Hypervisor, which answers from the overlay, the
// local store, or the ORAM.
type WSCache struct {
	entries map[WSCacheKey]*list.Element
	order   *list.List // front = most recent

	hits, misses uint64
}

type wsEntry struct {
	key   WSCacheKey
	value [32]byte
}

// NewWSCache returns an empty cache of WSCacheEntries records.
func NewWSCache() *WSCache {
	return &WSCache{
		entries: make(map[WSCacheKey]*list.Element, WSCacheEntries),
		order:   list.New(),
	}
}

// Get looks a record up, refreshing recency.
func (c *WSCache) Get(key WSCacheKey) ([32]byte, bool) {
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return [32]byte{}, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*wsEntry).value, true
}

// Put inserts or updates a record, evicting the LRU entry when full.
func (c *WSCache) Put(key WSCacheKey, value [32]byte) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*wsEntry).value = value
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= WSCacheEntries {
		oldest := c.order.Back()
		if oldest != nil {
			c.order.Remove(oldest)
			delete(c.entries, oldest.Value.(*wsEntry).key)
		}
	}
	c.entries[key] = c.order.PushFront(&wsEntry{key: key, value: value})
}

// Clear wipes the cache (bundle release).
func (c *WSCache) Clear() {
	c.entries = make(map[WSCacheKey]*list.Element, WSCacheEntries)
	c.order.Init()
	c.hits, c.misses = 0, 0
}

// Len returns the resident entry count.
func (c *WSCache) Len() int { return c.order.Len() }

// HitRate returns (hits, misses).
func (c *WSCache) HitRate() (uint64, uint64) { return c.hits, c.misses }
