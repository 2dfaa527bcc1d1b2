// Package simclock provides the virtual clock and hardware calibration
// table used to reproduce the paper's timing results on a pure-software
// substrate.
//
// Every component charges virtual time for the work it performs; the
// *counts* (instructions executed, bytes encrypted, ORAM round trips,
// signatures) are real measurements from the running implementation,
// and only the per-unit costs come from this table, calibrated to the
// paper's prototype (HEVM @0.1 GHz on FPGA, Cortex-A53 Hypervisor
// @1.4 GHz, 2 ms Ethernet RTT to the ORAM server — §VI).
package simclock

import (
	"sync"
	"time"
)

// Calibration holds the per-unit virtual costs. There is one table,
// DefaultCalibration, calibrated to the paper's prototype; every
// component reads it from there and no configuration carries a copy.
type Calibration struct {
	// HEVMCyclePeriod is one HEVM clock cycle (0.1 GHz → 10 ns).
	HEVMCyclePeriod time.Duration
	// HEVMCyclesPerOp is the average pipeline cost per EVM instruction
	// for the 4-stage in-order HEVM.
	HEVMCyclesPerOp uint64
	// HEVMCyclesPer256Mul is the extra cost of a 256-bit multiply/div.
	HEVMCyclesPerWideALU uint64
	// HEVMCyclesPerKeccakBlock is the cost of one keccak-f permutation
	// on the hardware keccak unit.
	HEVMCyclesPerKeccakBlock uint64

	// L2SwapPerPage is the cost of moving one 1 KB page between L1 and
	// L2 BlockRAM.
	L2SwapPerPage time.Duration
	// L3SwapPerPage is the cost of an authenticated-encrypted DMA of
	// one 1 KB page to/from untrusted memory.
	L3SwapPerPage time.Duration

	// ECDSASign and ECDSAVerify model the Cortex-A53 software ECDSA
	// (the paper measures ≈80 ms total per bundle for the -ES step).
	ECDSASign   time.Duration
	ECDSAVerify time.Duration
	// DHKE is the Diffie-Hellman exchange during attestation.
	DHKE time.Duration
	// AESGCMPerKB is the A.E.DMA throughput cost per KB.
	AESGCMPerKB time.Duration

	// ORAMLinkRTT is the Ethernet round-trip to the ORAM server (2 ms).
	ORAMLinkRTT time.Duration
	// ORAMServerPerQuery is the server-side processing per query
	// (25 µs, §VI-D).
	ORAMServerPerQuery time.Duration
	// ORAMClientPerBlock is the on-chip stash/position-map work per
	// ORAM block moved along the path.
	ORAMClientPerBlock time.Duration

	// LaneValidatePerRead is the in-order committer's cost to check one
	// read-set entry against the on-chip committed buffer (a tag
	// compare in the Hypervisor's SRAM, A53-class).
	LaneValidatePerRead time.Duration
	// LaneCommitPerWrite is the committer's cost to publish one
	// write-set entry into the committed buffer.
	LaneCommitPerWrite time.Duration

	// GethTimePerOp models the paper's baseline, Geth on an i7-12700 at
	// 4.35 GHz with all data prefetched to main memory: the average
	// interpreted-EVM wall time per instruction (≈55 cycles ≈ 12.6 ns:
	// software dispatch is heavier than the HEVM pipeline but the clock
	// is 43x faster).
	GethTimePerOp time.Duration
	// TSCVEETimePerOp and TSCVEEPrefetch model the TSC-VEE baseline
	// (Fig. 5): the interpreted-EVM time per instruction on its
	// TrustZone core (slightly slower than the Geth server, per the
	// TSC-VEE paper's own numbers) and the one-time load of the admitted
	// contract's bytecode and storage into secure memory.
	TSCVEETimePerOp time.Duration
	TSCVEEPrefetch  time.Duration
}

// ORAMBatchCost models one ORAM round: the link round trip is paid
// ONCE for the whole round (the requests travel in one pipelined
// message, and sub-batches fanned out to several shards leave back to
// back and overlap on the wire), server processing is serial per query
// on the busiest server (`queries`: the whole batch on one tree, the
// fullest shard's sub-batch on several), and the on-chip client work
// is serial per moved block (`blocks`, summed over every shard: one
// Hypervisor does all the stash/crypto work). It is the one formula
// that prices every ORAM round, one access included.
func (c Calibration) ORAMBatchCost(queries, blocks int) time.Duration {
	if queries <= 0 {
		return 0
	}
	return c.ORAMLinkRTT +
		time.Duration(queries)*c.ORAMServerPerQuery +
		time.Duration(blocks)*c.ORAMClientPerBlock
}

// ColdHandshakeCost models the device-side virtual time of a full
// attest + DHKE handshake: the A53 signs the attestation report and
// completes the key exchange (the report verification and user-side
// DHKE half run on the user's machine and are off the device clock).
// With the default calibration this is 75 ms — the ~80 ms the paper's
// Fig. 4 attributes to the asymmetric handshake step.
func (c Calibration) ColdHandshakeCost() time.Duration {
	return c.ECDSASign + c.DHKE
}

// WarmResumeCost models the device-side virtual time of a ticket
// resume: one AES-GCM open of the ticket plus the sealed rekey
// messages — symmetric crypto only, in the A.E.DMA's throughput class.
// ticketBytes sizes the dominant open; the two confirm-leg messages
// charge one KB-equivalent each. Default calibration: ≈33 µs for a
// 128-byte ticket — three orders of magnitude under the cold path.
func (c Calibration) WarmResumeCost(ticketBytes int) time.Duration {
	kb := (ticketBytes + 1023) / 1024
	return time.Duration(kb+2) * c.AESGCMPerKB
}

// DefaultCalibration returns the calibration table: costs calibrated to
// the paper's prototype. Each call returns a fresh value, so no reader
// can change what another reads.
func DefaultCalibration() Calibration {
	return Calibration{
		HEVMCyclePeriod:          10 * time.Nanosecond, // 0.1 GHz
		HEVMCyclesPerOp:          4,                    // 4-stage pipeline, ~1 IPC + hazards
		HEVMCyclesPerWideALU:     16,
		HEVMCyclesPerKeccakBlock: 24,

		L2SwapPerPage: 3 * time.Microsecond,
		L3SwapPerPage: 12 * time.Microsecond,

		ECDSASign:   40 * time.Millisecond,
		ECDSAVerify: 40 * time.Millisecond,
		DHKE:        35 * time.Millisecond,
		AESGCMPerKB: 11 * time.Microsecond,

		ORAMLinkRTT:        2 * time.Millisecond,
		ORAMServerPerQuery: 25 * time.Microsecond,
		ORAMClientPerBlock: 500 * time.Nanosecond,

		LaneValidatePerRead: 90 * time.Nanosecond,
		LaneCommitPerWrite:  120 * time.Nanosecond,

		GethTimePerOp:   13 * time.Nanosecond,
		TSCVEETimePerOp: 15 * time.Nanosecond,
		TSCVEEPrefetch:  2 * time.Millisecond,
	}
}

// Clock is a virtual clock. It is safe for concurrent use; each
// HEVM/session typically owns one.
type Clock struct {
	mu  sync.Mutex
	now time.Duration
}

// NewClock returns a clock at time zero.
func NewClock() *Clock {
	return &Clock{}
}

// Advance adds d to the virtual time and returns the new time.
func (c *Clock) Advance(d time.Duration) time.Duration {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
	return c.now
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AdvanceTo moves the clock forward to at least t (no-op when the
// clock is already past it) and returns the new time. The in-order
// committer uses this to wait, in virtual time, for a speculative
// lane's result.
func (c *Clock) AdvanceTo(t time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Reset sets the clock back to zero.
func (c *Clock) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = 0
}
