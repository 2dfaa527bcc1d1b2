package core

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestFreeSlotsTracksOccupancy(t *testing.T) {
	r := newRig(t, deviceWorld, config(ConfigRaw, 2, 0))
	d := r.device
	if got := d.FreeSlots(); got != d.SlotCount() {
		t.Fatalf("idle device: FreeSlots = %d, want %d", got, d.SlotCount())
	}

	// Occupy one core directly (the same channel Execute draws from).
	s := <-d.slots
	if got := d.FreeSlots(); got != d.SlotCount()-1 {
		t.Fatalf("one core busy: FreeSlots = %d, want %d", got, d.SlotCount()-1)
	}
	d.slots <- s
	if got := d.FreeSlots(); got != d.SlotCount() {
		t.Fatalf("released: FreeSlots = %d, want %d", got, d.SlotCount())
	}

	// Executing a bundle restores the slot afterwards.
	if _, err := d.Execute(r.transferBundle(t, 11)); err != nil {
		t.Fatal(err)
	}
	if got := d.FreeSlots(); got != d.SlotCount() {
		t.Fatalf("after execute: FreeSlots = %d, want %d", got, d.SlotCount())
	}
}

func TestExecuteContextTimesOutWhenSaturated(t *testing.T) {
	r := newRig(t, deviceWorld, config(ConfigRaw, 2, 0))
	d := r.device

	// Saturate every core so ExecuteContext must queue.
	var held []*slot
	for i := 0; i < d.SlotCount(); i++ {
		held = append(held, <-d.slots)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := d.ExecuteContext(ctx, r.transferBundle(t, 7)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("saturated device: err = %v, want DeadlineExceeded", err)
	}

	// Releasing a core lets the same bundle run.
	for _, s := range held {
		d.slots <- s
	}
	res, err := d.ExecuteContext(context.Background(), r.transferBundle(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted != nil {
		t.Fatalf("aborted: %v", res.Aborted)
	}
}

func TestExecuteContextPrefersFreeSlotOverCancelledContext(t *testing.T) {
	// A free core should win even if the context is already cancelled
	// (non-blocking fast path).
	r := newRig(t, deviceWorld, config(ConfigRaw, 2, 0))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := r.device.ExecuteContext(ctx, r.transferBundle(t, 3))
	if err != nil {
		t.Fatalf("free device with cancelled ctx: %v", err)
	}
	if len(res.Trace.Txs) != 1 {
		t.Fatal("no trace")
	}
}
