package core

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"hardtape/internal/attest"
	"hardtape/internal/drbg"
	"hardtape/internal/evm"
	"hardtape/internal/hevm"
	"hardtape/internal/node"
	"hardtape/internal/oram"
	"hardtape/internal/pager"
	"hardtape/internal/simclock"
	"hardtape/internal/tracer"
	"hardtape/internal/types"
	"hardtape/internal/workload"
)

// HypervisorImage is the measured firmware image (stand-in bytes whose
// hash users pin for attestation).
var HypervisorImage = []byte("hardtape-hypervisor-v1.0")

// Errors.
var (
	ErrBundleEmpty = errors.New("core: empty bundle")
	ErrAborted     = errors.New("core: bundle aborted")
)

// laneState is one execution lane's dedicated hardware set: machine
// shadow, L1 world-state cache, prefetcher, virtual clock, and the
// per-bundle bookkeeping the readers and hooks write into. A slot's
// embedded laneState is its commit lane — the in-order committer, which
// also executes every transaction that was not (or not validly)
// speculated; the extra lanes (when Config.Lanes > 1) run speculative
// transactions.
type laneState struct {
	id         int
	clock      *simclock.Clock
	machine    *hevm.Machine
	wsCache    *hevm.WSCache
	prefetcher *pager.Prefetcher
	// opCounts samples retired instructions by class for telemetry.
	// Plain memory owned by this lane — flushed to shared counters
	// between bundles, so the interpreter loop never touches atomics.
	opCounts evm.OpClassCounts
	// specStats is a speculative lane's machine statistics up to the
	// last outcome the committer consumed from it, set when the
	// speculation finishes; the commit lane leaves it zero.
	specStats hevm.Stats
	// queryTimes/queryKinds record the virtual time and kind ('k' for
	// K-V, 'c' for code) of every ORAM query this bundle issued (for
	// the prefetch ablation). Speculative lanes record lane-relative
	// times, folded to absolute when the bundle result is assembled.
	queryTimes []time.Duration
	queryKinds []byte
	// codeCache and acctCache hold the contract code and account meta
	// (nil = absent account) this lane fetched during the bundle (the
	// paper's "all data can be found locally after first access",
	// §VI-C); cleared with the rest of the on-chip state at release.
	codeCache map[types.Hash][]byte
	acctCache map[types.Address]*pager.AccountMeta
}

// reset clears every on-chip structure (step 10).
func (l *laneState) reset() {
	l.machine.Reset()
	l.wsCache.Clear()
	l.prefetcher.Reset()
	l.clock.Reset()
	l.opCounts.Reset()
	l.specStats = hevm.Stats{}
	l.queryTimes = nil
	l.queryKinds = nil
	l.codeCache = make(map[types.Hash][]byte)
	l.acctCache = make(map[types.Address]*pager.AccountMeta)
}

// slot is one HEVM core. The embedded laneState is the core's primary
// hardware set, the commit lane; lanes holds the speculative lanes when
// the device is configured with Config.Lanes > 1 (without them every
// transaction executes on the commit lane). A slot serves exactly one
// bundle at a time (the paper's dedicated-hardware isolation).
type slot struct {
	laneState
	lanes []*laneState
}

// reset clears every on-chip structure across all lanes (step 10).
func (s *slot) reset() {
	s.laneState.reset()
	for _, l := range s.lanes {
		l.reset()
	}
}

// hevmStats aggregates machine statistics across the commit lane and
// every speculative lane's consumed share (counts sum; the L2
// high-water mark is the max across independent rings; any lane
// overflowing marks the slot).
func (s *slot) hevmStats() hevm.Stats {
	st := s.machine.Stats()
	for _, l := range s.lanes {
		st.Add(l.specStats)
	}
	return st
}

// mergedQueries folds the speculative lanes' lane-relative query logs
// into the commit lane's absolute log, sorted into one device-absolute
// timeline (the cadence one adversary tap on the ORAM link observes).
// base is the device time at which the lane clocks started.
func (s *slot) mergedQueries(base time.Duration) ([]time.Duration, []byte) {
	n := len(s.queryTimes)
	for _, l := range s.lanes {
		n += len(l.queryTimes)
	}
	if n == 0 {
		return nil, nil
	}
	times := append(make([]time.Duration, 0, n), s.queryTimes...)
	kinds := append(make([]byte, 0, n), s.queryKinds...)
	for _, l := range s.lanes {
		for i, t := range l.queryTimes {
			times = append(times, base+t)
			kinds = append(kinds, l.queryKinds[i])
		}
	}
	sort.Stable(&queryLog{times: times, kinds: kinds})
	return times, kinds
}

// queryLog sorts a (time, kind) pair slice by timestamp.
type queryLog struct {
	times []time.Duration
	kinds []byte
}

func (q *queryLog) Len() int           { return len(q.times) }
func (q *queryLog) Less(i, j int) bool { return q.times[i] < q.times[j] }
func (q *queryLog) Swap(i, j int) {
	q.times[i], q.times[j] = q.times[j], q.times[i]
	q.kinds[i], q.kinds[j] = q.kinds[j], q.kinds[i]
}

// Device is one HarDTAPE chip: the Hypervisor plus cfg.HEVMs cores,
// attached to a Node (for sync) and an ORAM server (run by the SP).
type Device struct {
	cfg    Config
	booted *attest.BootedDevice

	chain *node.Node

	// oramServers holds the in-process shard servers in shard order (nil
	// for remote deployments).
	oramServers []*oram.MemServer
	// pages is the world state the last successful Sync paged. Sync
	// replaces it whole while it holds every HEVM slot, so a bundle
	// reads one Sync's pages throughout.
	pages *pageStores

	slots    chan *slot
	allSlots []*slot

	// oramClient is the Hypervisor's one Path ORAM client over
	// ORAMShards trees (nil without ORAM features).
	oramClient *oram.Client

	// tm is always non-nil; with telemetry disabled its instruments
	// are nil and every record call is a single branch.
	tm *devMetrics

	// oramKey is the shared bucket-encryption key (paper §IV-D "ORAM
	// key protection"); OfferORAMKey transfers it to sibling devices.
	// It is set once, in NewDevice.
	oramKey []byte
}

// NewDevice provisions, boots, and wires a device to its node. The
// manufacturer is created internally when mfr is nil (tests); pass a
// shared manufacturer when users must verify against a pinned root.
func NewDevice(cfg Config, mfr *attest.Manufacturer, chain *node.Node) (*Device, error) {
	if cfg.Features.Name() == "" {
		return nil, &FeaturesError{Features: cfg.Features}
	}
	if cfg.HEVMs <= 0 {
		return nil, fmt.Errorf("core: need at least one HEVM, got %d", cfg.HEVMs)
	}
	if mfr == nil {
		var err error
		mfr, err = attest.NewManufacturer()
		if err != nil {
			return nil, err
		}
	}
	// The serial travels in the plaintext attestation report, so it is
	// drawn, never derived from the seed.
	var serial [8]byte
	if _, err := rand.Read(serial[:]); err != nil {
		return nil, fmt.Errorf("core: serial: %w", err)
	}
	provisioned, err := mfr.Provision("HT-" + hex.EncodeToString(serial[:]))
	if err != nil {
		return nil, err
	}
	booted, err := provisioned.SecureBoot(HypervisorImage)
	if err != nil {
		return nil, err
	}

	d := &Device{
		cfg:    cfg,
		booted: booted,
		chain:  chain,
		slots:  make(chan *slot, cfg.HEVMs),
		tm:     newDevMetrics(cfg.Telemetry),
	}

	// ORAM server(s) + shared client (the SP runs the servers; the
	// Hypervisor holds the client with its on-chip stash/position map).
	if cfg.Features.ORAMStorage || cfg.Features.ORAMCode {
		key := cfg.ORAMKey
		if len(key) == 0 {
			key = make([]byte, oram.KeySize)
			if _, err := rand.Read(key); err != nil {
				return nil, fmt.Errorf("core: oram key: %w", err)
			}
		} else if len(key) != oram.KeySize {
			return nil, fmt.Errorf("core: ORAM key must be %d bytes", oram.KeySize)
		}
		d.oramKey = append([]byte(nil), key...)
		client, err := d.buildORAM(cfg, key)
		if err != nil {
			return nil, err
		}
		d.oramClient = client
	}
	d.pages = newPageStores(d.oramClient)

	for i := 0; i < cfg.HEVMs; i++ {
		lane, err := newLane(cfg, i, i)
		if err != nil {
			return nil, err
		}
		s := &slot{laneState: *lane}
		// Speculative lanes get their own full hardware set each, with
		// stream indexes disjoint from every core's primary lane.
		if cfg.Lanes > 1 {
			for j := 0; j < cfg.Lanes; j++ {
				sl, err := newLane(cfg, j, cfg.HEVMs+i*cfg.Lanes+j)
				if err != nil {
					return nil, err
				}
				s.lanes = append(s.lanes, sl)
			}
		}
		d.allSlots = append(d.allSlots, s)
		d.slots <- s
	}
	return d, nil
}

// buildORAM wires the device's oblivious store from the config: pick
// one server per shard — remote or in-process — and put the one ORAM
// client on top (DESIGN.md §7). The client's stash and position map
// live as long as the device: a restarted device is provisioned again
// and syncs.
func (d *Device) buildORAM(cfg Config, key []byte) (*oram.Client, error) {
	shards := cfg.ORAMShardCount()
	opts := []oram.ClientOption{oram.WithSeed(cfg.Seed)}
	if cfg.Telemetry != nil {
		opts = append(opts, oram.WithTelemetry(cfg.Telemetry))
	}
	servers := make([]oram.Server, 0, shards)
	// closeDialed releases the shard connections opened so far when a
	// later step fails (in-memory shards hold nothing to close).
	closeDialed := func() {
		for _, srv := range servers {
			if c, ok := srv.(io.Closer); ok {
				_ = c.Close()
			}
		}
	}
	if cfg.RemoteORAMAddr != "" {
		addrs := strings.Split(cfg.RemoteORAMAddr, ",")
		if len(addrs) != shards {
			return nil, fmt.Errorf("core: %d ORAM shards need %d remote addresses, got %d",
				shards, shards, len(addrs))
		}
		for i, addr := range addrs {
			remote, err := oram.DialServer(strings.TrimSpace(addr))
			if err != nil {
				closeDialed()
				return nil, fmt.Errorf("core: remote oram shard %d: %w", i, err)
			}
			servers = append(servers, remote)
		}
	} else {
		perShard := (cfg.ORAMCapacity + uint64(shards) - 1) / uint64(shards)
		for len(servers) < shards {
			mem, err := oram.NewMemServer(perShard)
			if err != nil {
				return nil, err
			}
			d.oramServers = append(d.oramServers, mem)
			servers = append(servers, mem)
		}
	}
	client, err := oram.NewClient(servers, key, opts...)
	if err != nil {
		closeDialed()
		return nil, err
	}
	return client, nil
}

// newLane builds one lane's hardware set; stream indexes its generators.
func newLane(cfg Config, id, stream int) (*laneState, error) {
	clock := simclock.NewClock()
	noise, err := drbg.New(cfg.Seed, hevm.NoiseLabel, stream)
	if err != nil {
		return nil, err
	}
	cadence, err := drbg.New(cfg.Seed, pager.PrefetchLabel, stream)
	if err != nil {
		return nil, err
	}
	machine, err := hevm.New(cfg.Hardware, clock, hevm.MemL3{}, noise)
	if err != nil {
		return nil, err
	}
	return &laneState{
		id:         id,
		clock:      clock,
		machine:    machine,
		wsCache:    hevm.NewWSCache(),
		prefetcher: pager.NewPrefetcher(cadence),
		codeCache:  make(map[types.Hash][]byte),
		acctCache:  make(map[types.Address]*pager.AccountMeta),
	}, nil
}

// Booted exposes the attestation endpoint (step 2).
func (d *Device) Booted() *attest.BootedDevice { return d.booted }

// ORAMServer exposes the SP-side server (adversary observation point):
// shard 0 of ORAMServers, nil when there is no in-process server.
func (d *Device) ORAMServer() *oram.MemServer {
	if len(d.oramServers) == 0 {
		return nil
	}
	return d.oramServers[0]
}

// ORAMServers exposes every in-process shard server in shard order
// (nil for remote deployments).
func (d *Device) ORAMServers() []*oram.MemServer { return d.oramServers }

// Sync rebuilds the device's page stores from the node's world state,
// Merkle-verified (step 11 / initial full sync): every account is
// verified first, then each of its pages is written once, blind, into
// the stores place names, and the new stores replace the old. It holds
// every HEVM slot for its duration: it waits for running bundles to
// finish and admits none until it returns, so no bundle reads the
// stores while they are rebuilt and none straddles a sync. A Sync that
// fails installs nothing: verification fails before any write, and a
// failed ORAM write latches the client closed (oram.ErrClientFailed).
func (d *Device) Sync() error {
	held := make([]*slot, 0, len(d.allSlots))
	for range d.allSlots {
		held = append(held, <-d.slots)
	}
	defer func() {
		for _, s := range held {
			d.slots <- s
		}
	}()
	accts, err := node.NewSyncer(d.chain).VerifyAll()
	if err != nil {
		return fmt.Errorf("core: sync: %w", err)
	}
	pages := newPageStores(d.oramClient)
	pl := pages.place(d.cfg.Features)
	for _, a := range accts {
		if err := pages.add(pl, a); err != nil {
			return fmt.Errorf("core: sync: %w", err)
		}
	}
	d.pages = pages
	return nil
}

// BundleResult is what a pre-execution returns to the user (step 9).
type BundleResult struct {
	Trace *tracer.BundleTrace
	// VirtualTime is the modeled end-to-end device time for the bundle
	// (the quantity Fig. 4 reports).
	VirtualTime time.Duration
	// Aborted carries a Memory Overflow (or tamper) abort.
	Aborted error
	// Machine/query statistics.
	HEVMStats   hevm.Stats
	ORAMQueries uint64
	GasUsed     uint64
	// QueryTimes is the virtual timestamp of each ORAM query (the
	// adversary-observable cadence); QueryKinds is the ground-truth
	// kind per query ('k' K-V, 'c' code) for the prefetch ablation.
	QueryTimes []time.Duration
	QueryKinds []byte
	// Parallel carries the optimistic-scheduler statistics; nil when
	// nothing was speculated (no lanes, or a one-transaction bundle).
	Parallel *ParallelStats
}

// Execute runs a bundle on an exclusively assigned HEVM, blocking
// until a core is idle (step 3's queue). It implements steps 3–10.
func (d *Device) Execute(bundle *types.Bundle) (*BundleResult, error) {
	return d.ExecuteContext(context.Background(), bundle)
}

// ExecuteContext is Execute with a cancellable wait for a free HEVM:
// if ctx expires before a core is idle, the bundle is abandoned with
// ctx.Err() instead of queuing forever. Once a core is assigned the
// bundle runs to completion (the paper's HEVMs have no preemption).
func (d *Device) ExecuteContext(ctx context.Context, bundle *types.Bundle) (res *BundleResult, err error) {
	if bundle == nil || len(bundle.Txs) == 0 {
		return nil, ErrBundleEmpty
	}
	// Continues the caller's distributed trace when one rides ctx.
	sp, ctx := d.cfg.Telemetry.StartSpan(ctx, "device.bundle")
	sp.AddInt("txs", int64(len(bundle.Txs)))
	defer sp.End(nil, &err)

	s, err := d.acquireSlot(ctx)
	if err != nil {
		return nil, err
	}
	defer func() {
		s.reset()
		d.slots <- s
	}()
	s.reset()
	return d.executeOn(ctx, s, bundle)
}

// acquireSlot takes an idle HEVM core (exclusive assignment), waiting
// for one until ctx expires. When all cores are busy the queue wait is
// a span of its own, so a trace shows admission stalls apart from
// execution time.
func (d *Device) acquireSlot(ctx context.Context) (s *slot, err error) {
	select {
	case s = <-d.slots:
		return s, nil
	default:
	}
	sp, _ := d.cfg.Telemetry.StartSpan(ctx, "device.slot_wait")
	defer sp.End(nil, &err)
	select {
	case s = <-d.slots:
		return s, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// executeOn runs the bundle on a specific slot. Its "device.exec" span
// covers everything the slot does for the bundle — the border-crossing
// charges and the HEVM stages between them — parents the lane and ORAM
// spans, and is the one clock behind the execute-seconds series.
func (d *Device) executeOn(ctx context.Context, s *slot, bundle *types.Bundle) (result *BundleResult, err error) {
	sp, ctx := d.cfg.Telemetry.StartSpan(ctx, "device.exec")
	defer sp.End(d.tm.execWall, &err)
	cal := simclock.DefaultCalibration()
	feat := d.cfg.Features

	// Step 6: the user's message crosses the border. Charge the
	// A.E.DMA decrypt and the per-bundle signature verification.
	inputBytes := bundleSize(bundle)
	if feat.Encrypt {
		s.clock.Advance(time.Duration(inputBytes/1024+1) * cal.AESGCMPerKB)
	}
	if feat.Sign {
		s.clock.Advance(cal.ECDSAVerify)
	}
	// Device time when execution proper starts — the zero point of the
	// speculative lanes' relative clocks.
	execBase := s.clock.Now()

	head := d.chain.Head()
	blockCtx := workload.NewBlockContext(&head.Header)
	blockCtx.BlockHash = d.chain.BlockHash

	result = &BundleResult{}
	err = d.runBundle(ctx, s, blockCtx, bundle, result)
	if p := result.Parallel; p != nil {
		sp.AddInt("lanes", int64(p.Lanes))
	}
	if err != nil {
		d.tm.bundlesErr.Inc()
		return nil, err
	}

	// Step 9: trace leaves through the secure channel.
	traceBytes := traceSize(result.Trace)
	if feat.Encrypt {
		s.clock.Advance(time.Duration(traceBytes/1024+1) * cal.AESGCMPerKB)
	}
	if feat.Sign {
		s.clock.Advance(cal.ECDSASign)
	}
	result.VirtualTime = s.clock.Now()
	result.HEVMStats = s.hevmStats()
	result.QueryTimes, result.QueryKinds = s.mergedQueries(execBase)
	result.ORAMQueries = uint64(len(result.QueryTimes))
	d.tm.txs.Add(uint64(len(bundle.Txs)))
	if d.cfg.Telemetry != nil {
		d.tm.recordBundle(s, result)
	}
	return result, nil
}

// bundleSize approximates the wire size of a bundle.
func bundleSize(b *types.Bundle) uint64 {
	var n uint64
	for _, tx := range b.Txs {
		n += 128 + uint64(len(tx.Data))
	}
	return n
}

// traceSize approximates the wire size of a returned trace.
func traceSize(tr *tracer.BundleTrace) uint64 {
	if tr == nil {
		return 0
	}
	var n uint64
	for _, tx := range tr.Txs {
		n += 64 + uint64(len(tx.ReturnData)) + uint64(len(tx.Calls))*64 +
			uint64(len(tx.Storage))*72 + uint64(len(tx.Steps))*24
	}
	return n
}

// SlotCount reports the number of HEVM cores.
func (d *Device) SlotCount() int { return d.cfg.HEVMs }

// FreeSlots reports how many HEVM cores are idle right now without
// blocking — the Hypervisor's occupancy register, read by schedulers
// (the fleet gateway) for least-busy dispatch.
func (d *Device) FreeSlots() int { return len(d.slots) }

// ORAMStats snapshots the shared ORAM client's counters (zero value
// when ORAM features are disabled).
func (d *Device) ORAMStats() oram.Stats {
	if d.oramClient == nil {
		return oram.Stats{}
	}
	return d.oramClient.Stats()
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }
