package emulator

import (
	"context"
	"fmt"

	"apichecker/internal/behavior"
	"apichecker/internal/monkey"
)

// Farm models the production deployment unit (§4.2, §5.1): one commodity
// x86 server (5×4-core Xeon) running Lanes emulator instances concurrently
// (16 in production; the remaining 4 cores schedule, monitor and log).
//
// The farm is also the serving path's lane gate: RunContext takes a free
// lane slot for the duration of one emulation and is guaranteed to return
// it — including when the bounding context is cancelled mid-run — so a
// pipeline abandoning a vet can never leak an emulator.
type Farm struct {
	emu   *Emulator
	lanes int

	// slots carries one token per free lane; RunContext takes one per
	// emulation and always returns it.
	slots chan struct{}
}

// ProductionLanes is the deployed per-server emulator count.
const ProductionLanes = 16

// NewFarm builds a farm over an emulator with the given parallel lanes.
func NewFarm(e *Emulator, lanes int) (*Farm, error) {
	if lanes <= 0 {
		return nil, fmt.Errorf("emulator: farm lanes %d must be positive", lanes)
	}
	f := &Farm{emu: e, lanes: lanes, slots: make(chan struct{}, lanes)}
	for i := 0; i < lanes; i++ {
		f.slots <- struct{}{}
	}
	return f, nil
}

// Lanes returns the farm's emulator-slot count.
func (f *Farm) Lanes() int { return f.lanes }

// FreeLanes returns how many lanes are idle right now.
func (f *Farm) FreeLanes() int { return len(f.slots) }

// Emulator returns the engine the lanes run.
func (f *Farm) Emulator() *Emulator { return f.emu }

// RunContext emulates one program on a farm lane: it blocks for a free
// slot (or the context's end), runs, and returns the slot whatever
// happened — completion, crash fallback, or mid-run cancellation. A run
// that completes is bit-identical to Emulator.Run: the slot gate consumes
// no randomness. A free slot is taken even when the context has already
// expired, so the error surfaced for a pre-expired context is the
// engine's own abort (identical to the ungated path).
func (f *Farm) RunContext(ctx context.Context, p *behavior.Program, mk monkey.Config) (*Result, error) {
	select {
	case <-f.slots:
	default:
		select {
		case <-f.slots:
		case <-ctx.Done():
			return nil, fmt.Errorf("emulator: %s: lane wait aborted: %w", p.PackageName, ctx.Err())
		}
	}
	defer func() { f.slots <- struct{}{} }()
	return f.emu.RunContext(ctx, p, mk)
}
