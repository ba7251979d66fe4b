package core

import (
	"fmt"
	"time"

	"colza/internal/bufpool"
	"colza/internal/mercury"
)

// The paper's client API has two handle kinds: the distributed pipeline
// handle (DistributedPipelineHandle here) and "a pipeline handle, which
// references a specific pipeline in a specific server". This file is the
// latter: a non-collective handle for pipelines whose work does not span
// the staging area. It skips the 2PC — there is no member view to agree
// on — and gives the pipeline instance a one-member communicator.

// handleActivateSolo activates a pipeline on this server only, with a
// communicator spanning just this server. The request is an epoch frame.
func (p *Provider) handleActivateSolo(req mercury.Request) ([]byte, error) {
	name, it, epoch, err := decodeEpoch(req.Payload)
	if err != nil {
		return nil, err
	}
	slot, err := p.slotOf(name)
	if err != nil {
		return nil, err
	}
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.active != nil {
		return nil, fmt.Errorf("%w: %q", ErrBusy, slot.name)
	}
	view := MemberView{Epoch: epoch, Members: p.selfView}
	if err := p.activateSlot(slot, it, epoch, view); err != nil {
		return nil, err
	}
	return respOK, nil
}

// PipelineHandle references one pipeline instance on one specific server.
// Unlike the distributed handle there is no view agreement: activate is a
// single RPC, after which the handle is a distributed handle pinned to a
// one-member view — staging (retries, coalescing by transport),
// execute and deactivate are the distributed handle's own.
type PipelineHandle struct {
	h      *DistributedPipelineHandle
	server string
}

// SoloHandle creates a handle on the pipeline instance at one server.
func (c *Client) SoloHandle(pipeline, serverRPC string) *PipelineHandle {
	return &PipelineHandle{h: c.Handle(pipeline, serverRPC), server: serverRPC}
}

// SetTimeout sets the per-RPC timeout.
func (p *PipelineHandle) SetTimeout(d time.Duration) { p.h.SetTimeout(d) }

// Server returns the target server's RPC address.
func (p *PipelineHandle) Server() string { return p.server }

// Activate starts an iteration on the single server and pins the handle's
// view to it.
func (p *PipelineHandle) Activate(it uint64) error {
	h := p.h
	h.mu.Lock()
	timeout := h.timeout
	h.mu.Unlock()
	epoch := (it+1)<<8 | 0xE0 // distinct epoch space from distributed handles
	payload := appendEpoch(bufpool.Get(epochSize(h.pipeline))[:0], h.pipeline, it, epoch)
	resp, err := h.c.call(p.server, "activate_solo", payload, timeout)
	bufpool.Put(payload)
	if err != nil {
		return err
	}
	mercury.Recycle(resp)
	h.SetView(MemberView{Epoch: epoch, Members: []string{p.server}})
	return nil
}

// Stage hands a block to the server (DistributedPipelineHandle.Stage).
func (p *PipelineHandle) Stage(it uint64, meta BlockMeta, data []byte) error {
	return p.h.Stage(it, meta, data)
}

// Execute runs the pipeline on the single server.
func (p *PipelineHandle) Execute(it uint64) (ExecResult, error) {
	res, err := p.h.Execute(it)
	if err != nil {
		return ExecResult{}, err
	}
	return res[0], nil
}

// Deactivate completes the iteration.
func (p *PipelineHandle) Deactivate(it uint64) error { return p.h.Deactivate(it) }

// Non-blocking variants, mirroring the distributed handle.

// NBActivate is the non-blocking Activate.
func (p *PipelineHandle) NBActivate(it uint64) *Async {
	return asyncRun(func() asyncRes { return asyncRes{err: p.Activate(it)} })
}

// NBStage is the non-blocking Stage (DistributedPipelineHandle.NBStage).
func (p *PipelineHandle) NBStage(it uint64, meta BlockMeta, data []byte) *Async {
	return p.h.NBStage(it, meta, data)
}

// NBExecute is the non-blocking Execute.
func (p *PipelineHandle) NBExecute(it uint64) *Async { return p.h.NBExecute(it) }

// NBDeactivate is the non-blocking Deactivate.
func (p *PipelineHandle) NBDeactivate(it uint64) *Async { return p.h.NBDeactivate(it) }
