package evm

import (
	"sync"

	"hardtape/internal/types"
)

// CodeAnalysis is the static analysis of one bytecode blob: the valid
// JUMPDEST bitmap. It is immutable after construction, so one instance
// is safely shared by every frame, transaction, and bundle executing
// the same code.
type CodeAnalysis struct {
	// jumpdests marks positions holding a JUMPDEST opcode that is not
	// inside a PUSH immediate (bit i of byte i/8).
	jumpdests []byte
}

// analyzeCode scans code once, marking the JUMPDESTs that are not
// inside a PUSH immediate.
func analyzeCode(code []byte) *CodeAnalysis {
	a := &CodeAnalysis{jumpdests: make([]byte, (len(code)+7)/8)}
	for i := 0; i < len(code); {
		op := OpCode(code[i])
		if op == JUMPDEST {
			a.jumpdests[i/8] |= 1 << (i % 8)
		}
		i += 1 + op.PushSize()
	}
	return a
}

// ValidJumpdest reports whether pos is a valid jump target.
func (a *CodeAnalysis) ValidJumpdest(pos uint64) bool {
	return a.jumpdests[pos/8]&(1<<(pos%8)) != 0
}

// analysisCacheMaxEntries bounds the shared cache. When full the cache
// is dropped wholesale: hot contracts re-populate it within one bundle,
// and the bound keeps a churn-heavy workload (CREATE2 factories) from
// growing it without limit.
const analysisCacheMaxEntries = 4096

// analysisCache is a concurrency-safe map from code hash to analysis.
// Reads take the read lock only; the write lock is held just long
// enough to insert an already-built analysis (never across the scan
// itself, and never across any blocking call).
type analysisCache struct {
	mu      sync.RWMutex
	entries map[types.Hash]*CodeAnalysis
}

// sharedAnalysis is the process-wide cache shared by all EVM instances
// (one per HEVM core; many run concurrently under the fleet gateway).
var sharedAnalysis = &analysisCache{entries: make(map[types.Hash]*CodeAnalysis)}

// analyze returns the cached analysis for (hash, code), building and
// inserting it on a miss. The scan runs outside the lock; on a race the
// first inserted instance wins so all frames share one copy.
func (c *analysisCache) analyze(hash types.Hash, code []byte) *CodeAnalysis {
	c.mu.RLock()
	a := c.entries[hash]
	c.mu.RUnlock()
	if a != nil {
		return a
	}
	a = analyzeCode(code)
	c.mu.Lock()
	if existing := c.entries[hash]; existing != nil {
		a = existing
	} else {
		if len(c.entries) >= analysisCacheMaxEntries {
			clear(c.entries)
		}
		c.entries[hash] = a
	}
	c.mu.Unlock()
	return a
}

// size returns the current entry count (test support).
func (c *analysisCache) size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}
