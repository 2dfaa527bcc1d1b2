package workload

import "hardtape/internal/evm"

// FrameStats captures one execution frame's Table I dimensions.
type FrameStats struct {
	CodeSize    uint64
	InputSize   uint64
	MemorySize  uint64
	ReturnSize  uint64
	StorageKeys int
}

// TxStats captures one transaction's call-depth (Table I right column).
type TxStats struct {
	CallDepth int
}

// StatsCollector measures the distributions of Table I from live
// execution, via evm.Hooks. Attach with Hooks(), call BeginTx/EndTx
// around each transaction.
type StatsCollector struct {
	Frames []FrameStats
	Txs    []TxStats

	// open frames during execution.
	stack []*frameAccum
	depth int
}

type frameAccum struct {
	stats       FrameStats
	storageKeys map[string]struct{}
}

// NewStatsCollector returns an empty collector.
func NewStatsCollector() *StatsCollector {
	return &StatsCollector{}
}

// Hooks returns the hooks that feed this collector.
func (c *StatsCollector) Hooks() *evm.Hooks {
	return &evm.Hooks{
		OnCallEnter:  c.onEnter,
		OnCallExit:   c.onExit,
		OnMemAccess:  c.onMem,
		OnWorldState: c.onWS,
	}
}

// BeginTx resets the per-tx depth tracker.
func (c *StatsCollector) BeginTx() {
	c.depth = 0
	c.stack = c.stack[:0]
}

// EndTx records the transaction's statistics.
func (c *StatsCollector) EndTx() {
	c.Txs = append(c.Txs, TxStats{CallDepth: c.depth})
}

func (c *StatsCollector) onEnter(info evm.CallFrameInfo) {
	f := &frameAccum{storageKeys: make(map[string]struct{})}
	f.stats.CodeSize = uint64(info.CodeSize)
	f.stats.InputSize = uint64(info.InputSize)
	c.stack = append(c.stack, f)
	if d := info.Depth + 1; d > c.depth {
		c.depth = d
	}
}

func (c *StatsCollector) onExit(info evm.CallResultInfo) {
	if len(c.stack) == 0 {
		return
	}
	f := c.stack[len(c.stack)-1]
	c.stack = c.stack[:len(c.stack)-1]
	f.stats.ReturnSize = uint64(info.ReturnSize)
	f.stats.StorageKeys = len(f.storageKeys)
	c.Frames = append(c.Frames, f.stats)
}

func (c *StatsCollector) onMem(a evm.MemAccess) {
	if len(c.stack) == 0 {
		return
	}
	f := c.stack[len(c.stack)-1]
	if end := a.Offset + a.Size; end > f.stats.MemorySize {
		f.stats.MemorySize = end
	}
}

func (c *StatsCollector) onWS(a evm.WorldStateAccess) {
	if len(c.stack) == 0 || a.Kind != evm.WSStorage {
		return
	}
	f := c.stack[len(c.stack)-1]
	f.storageKeys[a.Addr.String()+a.Key.String()] = struct{}{}
}

// SizeBand is one row of the Table I size panels.
type SizeBand struct {
	Label    string
	Min, Max uint64
}

// Table I size bands for memory-likes.
var SizeBands = []SizeBand{
	{"<1k", 0, 1023},
	{"1-4k", 1024, 4095},
	{"4-12k", 4096, 12287},
	{"12-64k", 12288, 65535},
	{">64k", 65536, ^uint64(0)},
}

// KeyBands for storage records per frame.
var KeyBands = []SizeBand{
	{"<=4", 0, 4},
	{"5-16", 5, 16},
	{"17-64", 17, 64},
	{">64", 65, ^uint64(0)},
}

// DepthBands for call depth per transaction.
var DepthBands = []SizeBand{
	{"1", 1, 1},
	{"2-5", 2, 5},
	{"6-10", 6, 10},
	{">10", 11, ^uint64(0)},
}

// Distribution computes the percentage of values landing in each band.
func Distribution(values []uint64, bands []SizeBand) map[string]float64 {
	out := make(map[string]float64, len(bands))
	if len(values) == 0 {
		return out
	}
	for _, b := range bands {
		count := 0
		for _, v := range values {
			if v >= b.Min && v <= b.Max {
				count++
			}
		}
		out[b.Label] = 100 * float64(count) / float64(len(values))
	}
	return out
}
