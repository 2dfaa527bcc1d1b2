// Package hevm models HarDTAPE's hardware EVM: the paper's 3-layer
// memory structure (§IV-B), built as a byte-accurate shadow of the
// interpreter in internal/evm.
//
//	Layer 1 — partitioned caches: full runtime stack (32 KB), 64 KB
//	          code cache, 4 KB Memory/Input caches, 1 KB ReturnData
//	          cache, 32-slot frame state, 4 KB world-state cache.
//	Layer 2 — the on-chip call stack: a 1 MB ring of 1 KB pages, one
//	          contiguous run of pages per execution frame.
//	Layer 3 — untrusted memory receiving AES-GCM-sealed page dumps
//	          when L2 overflows, with randomized pre-evict/pre-load
//	          noise so the adversary observes only noisy sizes (A5).
//
// The interpreter executes against canonical data structures and
// feeds this model through evm.Hooks; the model reproduces residency,
// swap traffic, timing, and the Memory Overflow Error exactly as the
// fixed-function hardware would, and performs real authenticated
// encryption on every L3 page movement.
package hevm

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"hardtape/internal/drbg"
	"hardtape/internal/evm"
	"hardtape/internal/simclock"
)

// The paper's fixed hardware dimensions.
const (
	// PageSize is the swap granularity (1 KB).
	PageSize = 1024
	// CodeCachePages is the L1 code cache capacity (64 pages = 64 KB).
	CodeCachePages = 64
	// WSCacheEntries is the L1 world-state cache (64 records).
	WSCacheEntries = 64
)

// Config holds the dimensions the ablations and tests vary. Defaults
// follow the paper.
type Config struct {
	// L2Bytes is the on-chip call-stack capacity (1 MB).
	L2Bytes uint64
	// FrameLimitBytes aborts the bundle when one frame exceeds it
	// (paper: half of L2).
	FrameLimitBytes uint64
	// NoiseMaxPages bounds the random pre-evict/pre-load noise.
	NoiseMaxPages int
}

// DefaultConfig returns the paper's dimensions.
func DefaultConfig() Config {
	return Config{
		L2Bytes:         1 << 20,
		FrameLimitBytes: 1 << 19, // L2/2
		NoiseMaxPages:   8,
	}
}

// MemoryOverflowError is the paper's bundle-aborting error raised when
// a single execution frame exceeds FrameLimitBytes (observed on
// roll-up transactions, §VI-B).
type MemoryOverflowError struct {
	FrameBytes uint64
	Limit      uint64
}

func (e *MemoryOverflowError) Error() string {
	return fmt.Sprintf("hevm: memory overflow: frame %d bytes exceeds limit %d", e.FrameBytes, e.Limit)
}

// ErrL3Tampered is returned when a reloaded L3 page fails its AES-GCM
// authentication (attack A4).
var ErrL3Tampered = errors.New("hevm: layer-3 page authentication failed")

// SwapEvent is one adversary-visible L3 transfer. Pages includes the
// random noise, which is all the adversary can observe.
type SwapEvent struct {
	Evict bool
	Pages int
	At    time.Duration
}

// frameShadow tracks one execution frame's footprint.
type frameShadow struct {
	depth    int
	stackLen int
	memBytes uint64
	inputLen uint64
	codeLen  uint64
	retLen   uint64
	pages    []uint64 // page ids, bottom first
	// l3 marks which of this frame's pages currently live in L3.
	l3 map[uint64]bool
	// codePagesTouched tracks code-cache residency misses.
	codePagesTouched map[uint64]bool
}

// frameBytes is the L2 footprint: stack contents + memory-likes +
// 1 KB frame state.
func (f *frameShadow) frameBytes() uint64 {
	return uint64(f.stackLen)*32 + f.memBytes + f.inputLen + f.retLen + f.codeLen + PageSize
}

// Machine is one HEVM's hardware shadow. It is exclusively assigned to
// one bundle at a time and fully cleared between bundles (paper's
// dedicated-hardware isolation, step 10).
type Machine struct {
	cfg   Config
	clock *simclock.Clock
	// cal is simclock's calibration table, read once at construction.
	cal simclock.Calibration

	aead   cipher.AEAD
	noise  *drbg.Rand
	frames []*frameShadow
	// l3Store is the untrusted memory: encrypted page blobs.
	l3Store map[uint64][]byte
	// l2Used counts resident pages.
	l2Used   uint64
	nextPage uint64

	swaps      []SwapEvent
	stepCount  uint64
	codeFaults uint64
	overflowed bool
	nonceCtr   uint64
}

// NoiseLabel names the pre-evict/pre-load noise stream (drbg).
const NoiseLabel = "hardtape-noise-v1"

// New creates a machine. l3Key seals layer-3 pages (32 bytes); noise,
// this machine's alone, draws the pre-evict/pre-load noise (A5).
func New(cfg Config, clock *simclock.Clock, l3Key []byte, noise *drbg.Rand) (*Machine, error) {
	if len(l3Key) != 32 {
		return nil, errors.New("hevm: l3 key must be 32 bytes")
	}
	blk, err := aes.NewCipher(l3Key)
	if err != nil {
		return nil, fmt.Errorf("hevm: %w", err)
	}
	aead, err := cipher.NewGCM(blk)
	if err != nil {
		return nil, fmt.Errorf("hevm: %w", err)
	}
	return &Machine{
		cfg:     cfg,
		clock:   clock,
		cal:     simclock.DefaultCalibration(),
		aead:    aead,
		noise:   noise,
		l3Store: make(map[uint64][]byte),
	}, nil
}

// Hooks returns the evm.Hooks that drive this machine.
func (m *Machine) Hooks() *evm.Hooks {
	return &evm.Hooks{
		OnStep:      m.onStep,
		OnCallEnter: m.onCallEnter,
		OnCallExit:  m.onCallExit,
		OnMemAccess: m.onMemAccess,
	}
}

// Reset clears all on-chip state and the L3 mirror (bundle release,
// step 10: "the HEVM is reset to the idle state and all its on-chip
// memories are cleared").
func (m *Machine) Reset() {
	m.frames = nil
	m.l3Store = make(map[uint64][]byte)
	m.l2Used = 0
	m.nextPage = 0
	m.swaps = nil
	m.stepCount = 0
	m.codeFaults = 0
	m.overflowed = false
}

// Stats summarizes the machine's counters.
type Stats struct {
	Steps      uint64
	SwapEvents int
	// PagesEvicted/Loaded count noisy (observed) page movements.
	PagesEvicted int
	PagesLoaded  int
	L2PagesUsed  uint64
	Overflowed   bool
	// CodeFaults counts L1 code-cache misses (code pages beyond the
	// 64 KB window faulting to L2) — the L1 side of the memory
	// hierarchy the telemetry layer exports.
	CodeFaults uint64
}

// Add folds another machine's (or another bundle's) counters into s:
// event counts sum, L2 occupancy keeps the high-water mark, and an
// overflow anywhere marks the aggregate.
func (s *Stats) Add(o Stats) {
	s.Steps += o.Steps
	s.SwapEvents += o.SwapEvents
	s.PagesEvicted += o.PagesEvicted
	s.PagesLoaded += o.PagesLoaded
	s.CodeFaults += o.CodeFaults
	s.L2PagesUsed = max(s.L2PagesUsed, o.L2PagesUsed)
	s.Overflowed = s.Overflowed || o.Overflowed
}

// Stats returns the counters.
func (m *Machine) Stats() Stats {
	s := Stats{
		Steps:       m.stepCount,
		SwapEvents:  len(m.swaps),
		L2PagesUsed: m.l2Used,
		Overflowed:  m.overflowed,
		CodeFaults:  m.codeFaults,
	}
	for _, ev := range m.swaps {
		if ev.Evict {
			s.PagesEvicted += ev.Pages
		} else {
			s.PagesLoaded += ev.Pages
		}
	}
	return s
}

// SwapTrace returns the adversary-visible swap sequence.
func (m *Machine) SwapTrace() []SwapEvent {
	out := make([]SwapEvent, len(m.swaps))
	copy(out, m.swaps)
	return out
}

// current returns the topmost frame shadow, or nil outside execution.
func (m *Machine) current() *frameShadow {
	if len(m.frames) == 0 {
		return nil
	}
	return m.frames[len(m.frames)-1]
}

// onStep charges HEVM pipeline cycles and models the code cache.
func (m *Machine) onStep(info evm.StepInfo) {
	m.stepCount++
	cycles := m.cal.HEVMCyclesPerOp
	switch info.Op {
	case evm.MUL, evm.DIV, evm.SDIV, evm.MOD, evm.SMOD,
		evm.ADDMOD, evm.MULMOD, evm.EXP:
		cycles += m.cal.HEVMCyclesPerWideALU
	case evm.KECCAK256:
		cycles += 2 * m.cal.HEVMCyclesPerKeccakBlock
	}
	m.clock.Advance(time.Duration(cycles) * m.cal.HEVMCyclePeriod)

	f := m.current()
	if f == nil {
		return
	}
	f.stackLen = info.StackLen
	// Code cache: pages beyond the 64 KB window fault to L2.
	page := info.PC / PageSize
	if page >= CodeCachePages && !f.codePagesTouched[page] {
		if f.codePagesTouched == nil {
			f.codePagesTouched = make(map[uint64]bool)
		}
		f.codePagesTouched[page] = true
		m.codeFaults++
		m.clock.Advance(m.cal.L2SwapPerPage)
	}
}

// onCallEnter pushes a new frame shadow: L1 contents of the caller are
// evicted to its L2 frame and a fresh frame is allocated.
func (m *Machine) onCallEnter(info evm.CallFrameInfo) {
	f := &frameShadow{
		depth:    info.Depth,
		inputLen: uint64(info.InputSize),
		codeLen:  uint64(info.CodeSize),
		l3:       make(map[uint64]bool),
	}
	m.frames = append(m.frames, f)
	// Charge the L1→L2 eviction of the caller's working set.
	if len(m.frames) > 1 {
		caller := m.frames[len(m.frames)-2]
		pages := (caller.frameBytes() + PageSize - 1) / PageSize
		m.clock.Advance(time.Duration(pages) * m.cal.L2SwapPerPage)
	}
	m.growFrame(f)
}

// onCallExit pops the frame, frees its pages, and reloads the caller
// entirely on-chip (the paper's invariant for secure L1 misses).
func (m *Machine) onCallExit(info evm.CallResultInfo) {
	if len(m.frames) == 0 {
		return
	}
	f := m.frames[len(m.frames)-1]
	f.retLen = uint64(info.ReturnSize)
	m.frames = m.frames[:len(m.frames)-1]
	// Free the callee's pages.
	for _, p := range f.pages {
		if f.l3[p] {
			delete(m.l3Store, p)
		} else {
			m.l2Used--
		}
	}
	// Reload the (new) current frame's swapped pages, plus noise.
	cur := m.current()
	if cur == nil {
		return
	}
	var toLoad []uint64
	for _, p := range cur.pages {
		if cur.l3[p] {
			toLoad = append(toLoad, p)
		}
	}
	if len(toLoad) > 0 {
		m.loadPages(cur, toLoad, m.noise.Intn(m.cfg.NoiseMaxPages+1))
	}
	// Charge the L2→L1 reload of the caller's working set.
	pages := (cur.frameBytes() + PageSize - 1) / PageSize
	m.clock.Advance(time.Duration(pages) * m.cal.L2SwapPerPage)
}

// onMemAccess grows the current frame when Memory expands.
func (m *Machine) onMemAccess(a evm.MemAccess) {
	f := m.current()
	if f == nil {
		return
	}
	end := a.Offset + a.Size
	if end > f.memBytes {
		f.memBytes = end
		m.growFrame(f)
	}
}

// growFrame allocates L2 pages to match the frame's byte footprint,
// swapping lower frames to L3 when the ring is full, and raises the
// Memory Overflow Error past the frame limit.
func (m *Machine) growFrame(f *frameShadow) {
	size := f.frameBytes()
	if size >= m.cfg.FrameLimitBytes {
		m.overflowed = true
		evm.Halt(&MemoryOverflowError{FrameBytes: size, Limit: m.cfg.FrameLimitBytes})
	}
	needPages := (size + PageSize - 1) / PageSize
	for uint64(len(f.pages)) < needPages {
		m.ensureL2Space(1)
		f.pages = append(f.pages, m.nextPage)
		m.nextPage++
		m.l2Used++
	}
}

// l2Capacity in pages.
func (m *Machine) l2Capacity() uint64 {
	return m.cfg.L2Bytes / PageSize
}

// ensureL2Space evicts bottom-frame pages to L3 until `need` pages fit.
func (m *Machine) ensureL2Space(need uint64) {
	if m.l2Used+need <= m.l2Capacity() {
		return
	}
	required := m.l2Used + need - m.l2Capacity()
	// Pre-evict noise: dump more than required.
	noisy := required + uint64(m.noise.Intn(m.cfg.NoiseMaxPages+1))
	evicted := 0
	for _, f := range m.frames { // bottom frame first
		if f == m.current() {
			break // never evict the executing frame
		}
		for _, p := range f.pages {
			if uint64(evicted) >= noisy {
				break
			}
			if f.l3[p] {
				continue
			}
			m.sealPageToL3(p)
			f.l3[p] = true
			m.l2Used--
			evicted++
		}
		if uint64(evicted) >= noisy {
			break
		}
	}
	if evicted > 0 {
		m.swaps = append(m.swaps, SwapEvent{Evict: true, Pages: evicted, At: m.clock.Now()})
		m.clock.Advance(time.Duration(evicted) * m.cal.L3SwapPerPage)
	}
}

// loadPages reloads pages from L3 into L2, adding pre-load noise by
// also loading extra swapped pages of lower frames.
func (m *Machine) loadPages(owner *frameShadow, pages []uint64, noise int) {
	loaded := 0
	for _, p := range pages {
		m.openPageFromL3(p)
		owner.l3[p] = false
		m.l2Used++
		loaded++
	}
	// Noise: reload extra pages belonging to lower frames.
	for _, f := range m.frames {
		if noise <= 0 {
			break
		}
		for _, p := range f.pages {
			if noise <= 0 {
				break
			}
			if f.l3[p] && m.l2Used < m.l2Capacity() {
				m.openPageFromL3(p)
				f.l3[p] = false
				m.l2Used++
				loaded++
				noise--
			}
		}
	}
	m.swaps = append(m.swaps, SwapEvent{Evict: false, Pages: loaded, At: m.clock.Now()})
	m.clock.Advance(time.Duration(loaded) * m.cal.L3SwapPerPage)
}

// sealPageToL3 performs the real A.E.DMA encryption of one page into
// untrusted memory. The sealed buffer is a zeroed page carrying only
// the page id (the canonical data lives in the interpreter; see
// DESIGN.md §8) — the cryptographic path is the real one.
func (m *Machine) sealPageToL3(pageID uint64) {
	plain := make([]byte, PageSize)
	binary.BigEndian.PutUint64(plain, pageID)
	nonce := make([]byte, m.aead.NonceSize())
	binary.BigEndian.PutUint64(nonce[len(nonce)-8:], m.nextNonce())
	var ad [8]byte
	binary.BigEndian.PutUint64(ad[:], pageID)
	m.l3Store[pageID] = append(nonce, m.aead.Seal(nil, nonce, plain, ad[:])...)
}

func (m *Machine) nextNonce() uint64 {
	m.nonceCtr++
	return m.nonceCtr
}

// openPageFromL3 decrypts and authenticates one page on reload,
// halting the transaction with ErrL3Tampered on a missing or forged
// page.
func (m *Machine) openPageFromL3(pageID uint64) {
	blob := m.l3Store[pageID]
	ns := m.aead.NonceSize()
	if len(blob) < ns {
		evm.Halt(ErrL3Tampered)
	}
	var ad [8]byte
	binary.BigEndian.PutUint64(ad[:], pageID)
	plain, err := m.aead.Open(nil, blob[:ns], blob[ns:], ad[:])
	if err != nil || binary.BigEndian.Uint64(plain) != pageID {
		evm.Halt(ErrL3Tampered)
	}
	delete(m.l3Store, pageID)
}

// TamperL3 corrupts one stored L3 page (test hook, attack A4).
func (m *Machine) TamperL3() bool {
	for id, blob := range m.l3Store {
		blob[len(blob)-1] ^= 0x01
		m.l3Store[id] = blob
		return true
	}
	return false
}
