package bench

import (
	"fmt"
	"strings"
	"time"

	"hardtape/internal/oram"
	"hardtape/internal/simclock"
)

// oramSweepCapacity is the total block capacity of every sweep point,
// split evenly across shards — the comparison holds aggregate capacity
// constant, so a 4-shard point is four quarter-size trees, not four
// full-size ones.
const oramSweepCapacity = 4096

// oramSweepBlocks is the working set touched by the sweep.
const oramSweepBlocks = 512

// ORAMSweepCell is one (shards × batch-size) point of the sweep.
type ORAMSweepCell struct {
	// Shards is the partition width (1 = the paper's single tree).
	Shards int
	// Batch is the number of queries fanned out per round.
	Batch int
	// ModeledPerBatch is the virtual-clock cost per round under the
	// overlapped sharded arithmetic (RTT once, slowest shard's serial
	// server work, serial on-chip client work).
	ModeledPerBatch time.Duration
	// MeasuredPerBatch is the wall-clock cost per round of the software
	// fan-out (in-process MemServers; dominated by bucket crypto).
	MeasuredPerBatch time.Duration
	// ModeledSpeedup / MeasuredSpeedup are relative to the 1-shard cell
	// of the same batch size.
	ModeledSpeedup  float64 `json:",omitempty"`
	MeasuredSpeedup float64 `json:",omitempty"`
	// MaxStash is the worst per-shard stash high-water mark — evidence
	// the partition does not degrade any shard's stash behaviour.
	MaxStash int
}

// ORAMSweepReport holds the shard-scaling sweep of DESIGN.md §17: for
// each batch size, how the per-round cost falls as the tree is
// partitioned across more shards.
type ORAMSweepReport struct {
	// Capacity is the aggregate tree capacity (blocks), constant across
	// sweep points.
	Capacity uint64
	// Rounds is the number of measured batch rounds per cell.
	Rounds int
	Cells  []ORAMSweepCell
}

// ORAMShardSweep measures batched ORAM access cost across shard counts
// {1, 2, 4, … ≤ maxShards} × the given batch sizes. Each cell builds a
// fresh sharded client over in-process MemServers (aggregate capacity
// held constant), loads a deterministic working set, then times batched
// reads both on the virtual clock (the calibrated overlapped model) and
// on the wall clock (the real software fan-out).
func ORAMShardSweep(maxShards int, batches []int, rounds int) (*ORAMSweepReport, error) {
	if maxShards < 1 {
		maxShards = 1
	}
	if rounds < 1 {
		rounds = 16
	}
	if len(batches) == 0 {
		batches = []int{8, 32}
	}
	var shardCounts []int
	for k := 1; k <= maxShards; k *= 2 {
		shardCounts = append(shardCounts, k)
	}

	rep := &ORAMSweepReport{Capacity: oramSweepCapacity, Rounds: rounds}
	base := make(map[int]ORAMSweepCell) // batch → 1-shard cell
	for _, batch := range batches {
		for _, shards := range shardCounts {
			cell, err := oramSweepCell(shards, batch, rounds)
			if err != nil {
				return nil, fmt.Errorf("bench: oram sweep %d shards × batch %d: %w", shards, batch, err)
			}
			if shards == 1 {
				base[batch] = cell
			} else if b, ok := base[batch]; ok {
				cell.ModeledSpeedup = float64(b.ModeledPerBatch) / float64(cell.ModeledPerBatch)
				cell.MeasuredSpeedup = float64(b.MeasuredPerBatch) / float64(cell.MeasuredPerBatch)
			}
			rep.Cells = append(rep.Cells, cell)
		}
	}
	return rep, nil
}

func oramSweepCell(shards, batch, rounds int) (ORAMSweepCell, error) {
	perShard := (oramSweepCapacity + uint64(shards) - 1) / uint64(shards)
	servers := make([]oram.Server, shards)
	for i := range servers {
		srv, err := oram.NewMemServer(perShard)
		if err != nil {
			return ORAMSweepCell{}, err
		}
		servers[i] = srv
	}
	clock := simclock.NewClock()
	cli, err := oram.NewClient(servers, make([]byte, oram.KeySize),
		oram.WithClock(clock, simclock.DefaultCalibration()))
	if err != nil {
		return ORAMSweepCell{}, err
	}

	// Deterministic working set, written through the batched path.
	payload := make([]byte, oram.BlockSize)
	ops := make([]oram.BatchOp, 0, batch)
	for lo := 0; lo < oramSweepBlocks; lo += batch {
		ops = ops[:0]
		for j := lo; j < lo+batch && j < oramSweepBlocks; j++ {
			payload[0] = byte(j)
			op := oram.BatchOp{Op: oram.OpWrite, ID: oram.BlockID(j)}
			op.Data = append([]byte(nil), payload...)
			ops = append(ops, op)
		}
		if _, err := cli.AccessBatch(ops); err != nil {
			return ORAMSweepCell{}, err
		}
	}

	clock.Reset()
	start := time.Now()
	next := 0
	reads := make([]oram.BatchOp, batch)
	for r := 0; r < rounds; r++ {
		for j := range reads {
			reads[j] = oram.BatchOp{Op: oram.OpRead, ID: oram.BlockID(next % oramSweepBlocks)}
			next++
		}
		if _, err := cli.AccessBatch(reads); err != nil {
			return ORAMSweepCell{}, err
		}
	}
	wall := time.Since(start)
	modeled := clock.Now()

	return ORAMSweepCell{
		Shards:           shards,
		Batch:            batch,
		ModeledPerBatch:  modeled / time.Duration(rounds),
		MeasuredPerBatch: wall / time.Duration(rounds),
		MaxStash:         cli.Stats().MaxStash,
	}, nil
}

// Render produces the report text.
func (r *ORAMSweepReport) Render() string {
	var sb strings.Builder
	sb.WriteString("§17 — sharded ORAM batch fan-out (aggregate capacity ")
	fmt.Fprintf(&sb, "%d blocks, %d rounds/cell)\n\n", r.Capacity, r.Rounds)
	sb.WriteString("shards  batch   modeled/batch  speedup   measured/batch  speedup  max stash\n")
	for _, c := range r.Cells {
		mSpeed, wSpeed := "—", "—"
		if c.ModeledSpeedup > 0 {
			mSpeed = fmt.Sprintf("%.2fx", c.ModeledSpeedup)
		}
		if c.MeasuredSpeedup > 0 {
			wSpeed = fmt.Sprintf("%.2fx", c.MeasuredSpeedup)
		}
		fmt.Fprintf(&sb, "%6d  %5d  %13v  %7s  %14v  %7s  %9d\n",
			c.Shards, c.Batch,
			c.ModeledPerBatch.Round(time.Microsecond), mSpeed,
			c.MeasuredPerBatch.Round(time.Microsecond), wSpeed,
			c.MaxStash)
	}
	sb.WriteString("\nmodeled: overlapped round (RTT once + slowest shard's serial server work\n")
	sb.WriteString("+ serial on-chip client work); measured: wall clock, in-process servers.\n")
	return sb.String()
}
