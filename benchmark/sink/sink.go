// Package sink is the benchmark's output oracle for the stage-bound
// workloads: a pipeline backend that does no analysis and reports, per
// iteration, how many blocks and bytes reached it and the XOR of their
// CRC-32s (BlockSum). The benchmark checks those against values computed on the client
// before staging, so a wrong byte anywhere on the codec, batcher or
// shared-memory path is a failed operation.
package sink

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"colza/internal/core"
)

// TypeName is the pipeline type the backend registers under.
const TypeName = "benchmark/sink"

// Register installs the backend's factory in the process-wide pipeline
// registry.
func Register() {
	core.RegisterPipelineType(TypeName, func(json.RawMessage) (core.Backend, error) {
		return &backend{}, nil
	})
}

// backend accumulates per-iteration totals. Stage is called from several
// data-pool workers at once on the batched path, hence the mutex.
type backend struct {
	mu     sync.Mutex
	ctx    core.IterationContext
	active bool
	blocks int
	bytes  int64
	crc    uint32
}

func (b *backend) Activate(ctx core.IterationContext) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.active {
		return fmt.Errorf("sink: already active on iteration %d", b.ctx.Iteration)
	}
	b.ctx, b.active = ctx, true
	b.blocks, b.bytes, b.crc = 0, 0, 0
	return nil
}

// BlockSum is one block's contribution to the iteration's XOR: the CRC-32
// of its bytes times an odd multiplier made from its block id. A CRC is
// linear over XOR, so without the multiplier the same wrong byte in an even
// number of blocks (the Mandelbulb workloads stage each buffer under four
// ids) would cancel out of the total.
func BlockSum(meta core.BlockMeta, data []byte) uint32 {
	return crc32.ChecksumIEEE(data) * (2*uint32(meta.BlockID) + 1)
}

func (b *backend) Stage(it uint64, meta core.BlockMeta, data []byte) error {
	sum := BlockSum(meta, data)
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.active || b.ctx.Iteration != it {
		return fmt.Errorf("sink: stage outside active iteration %d", it)
	}
	b.blocks++
	b.bytes += int64(len(data))
	b.crc ^= sum
	return nil
}

func (b *backend) Execute(it uint64) (core.ExecResult, error) {
	start := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.active || b.ctx.Iteration != it {
		return core.ExecResult{}, fmt.Errorf("sink: execute outside active iteration %d", it)
	}
	return core.ExecResult{Summary: map[string]float64{
		"blocks":      float64(b.blocks),
		"bytes":       float64(b.bytes),
		"crc_xor":     float64(b.crc),
		"rank":        float64(b.ctx.Rank),
		"size":        float64(b.ctx.Size),
		"execute_sec": time.Since(start).Seconds(),
	}}, nil
}

func (b *backend) Deactivate(uint64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.active = false
	return nil
}

func (b *backend) Destroy() error { return nil }
