package bench

import (
	"context"
	"fmt"
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

// oramSweepRounds is the number of measured batch rounds per cell.
const oramSweepRounds = 16

// oramShardSweep measures batched ORAM access cost across shard counts
// {1, 2, 4, 8} × batch sizes {8, 32} (DESIGN.md §7): how the per-round
// cost falls as the tree is partitioned across more shards. Each cell
// builds a fresh sharded client over in-process MemServers (aggregate
// capacity held constant), loads a deterministic working set, then
// times batched reads on the virtual clock (the calibrated overlapped
// model). Speedups are relative to the 1-shard cell of the same batch
// size. Wall time of the software fan-out is BenchmarkORAMBatch's.
func oramShardSweep() (Table, error) {
	t := Table{
		Name: "oram",
		Title: fmt.Sprintf("§17 — sharded ORAM batch fan-out (aggregate capacity %d blocks, %d rounds/cell)",
			oramSweepCapacity, oramSweepRounds),
		Note: "per_batch models the overlapped round (RTT once + slowest shard's serial server work\n" +
			"+ serial on-chip client work). max_stash is the worst per-shard stash high-water mark",
	}
	for _, batch := range []int{8, 32} {
		var baseModeled time.Duration
		for shards := 1; shards <= 8; shards *= 2 {
			modeled, maxStash, err := oramSweepCell(shards, batch)
			if err != nil {
				return t, fmt.Errorf("bench: oram sweep %d shards × batch %d: %w", shards, batch, err)
			}
			if shards == 1 {
				baseModeled = modeled
			}
			t.Rows = append(t.Rows, Row{
				Name:   fmt.Sprintf("%d shards × %d", shards, batch),
				Params: []Field{count("shards", shards), count("batch", batch)},
				Modeled: []Field{
					ns("per_batch", modeled), num("speedup", "x", float64(baseModeled)/float64(modeled)),
					count("max_stash", maxStash),
				},
			})
		}
	}
	return t, nil
}

// oramSweepCell returns one cell's per-round cost on the virtual clock
// and the worst per-shard stash high-water mark.
func oramSweepCell(shards, batch int) (modeled time.Duration, maxStash int, err error) {
	perShard := (oramSweepCapacity + uint64(shards) - 1) / uint64(shards)
	servers := make([]oram.Server, shards)
	for i := range servers {
		srv, err := oram.NewMemServer(perShard)
		if err != nil {
			return 0, 0, err
		}
		servers[i] = srv
	}
	clock := simclock.NewClock()
	cli, err := oram.NewClient(servers, make([]byte, oram.KeySize),
		oram.WithClock(clock, simclock.DefaultCalibration()), oram.WithSeed(modelSeed))
	if err != nil {
		return 0, 0, err
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
		if _, err := cli.AccessBatch(context.Background(), ops); err != nil {
			return 0, 0, err
		}
	}

	clock.Reset()
	next := 0
	reads := make([]oram.BatchOp, batch)
	for r := 0; r < oramSweepRounds; r++ {
		for j := range reads {
			reads[j] = oram.BatchOp{Op: oram.OpRead, ID: oram.BlockID(next % oramSweepBlocks)}
			next++
		}
		if _, err := cli.AccessBatch(context.Background(), reads); err != nil {
			return 0, 0, err
		}
	}
	return clock.Now() / oramSweepRounds, cli.Stats().MaxStash, nil
}
