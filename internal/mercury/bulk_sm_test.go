package mercury

import (
	"bytes"
	"strings"
	"testing"

	"colza/internal/na"
)

// TestBulkPullOverSharedMemory: pulls against a colocated exposer with an
// arena copy straight out of the exposer's mapped segment — the chunked
// bulk-pull RPC never runs.
func TestBulkPullOverSharedMemory(t *testing.T) {
	ca, cb, ra, rb := classPair(t, "sm")
	payload := make([]byte, 256<<10)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	b := ca.Expose(payload)
	defer ca.Release(b)

	got, err := cb.PullBulk(b)
	if err != nil {
		t.Fatalf("PullBulk: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("pulled bytes differ")
	}
	sub, err := cb.PullBulkRange(b, 1000, 500)
	if err != nil {
		t.Fatalf("PullBulkRange: %v", err)
	}
	if !bytes.Equal(sub, payload[1000:1500]) {
		t.Fatal("ranged pull bytes differ")
	}
	if got := rb.Counter("na.shm.pull.local").Value(); got != 2 {
		t.Fatalf("na.shm.pull.local = %d, want 2", got)
	}
	if got := rb.Counter("mercury.call.count{rpc=__mercury/bulk_pull}").Value(); got != 0 {
		t.Fatalf("bulk-pull RPC ran %d times; zero-copy path missed", got)
	}
	if got := ra.Gauge("na.shm.mapped.bytes").Value(); got != int64(len(payload)) {
		t.Fatalf("na.shm.mapped.bytes = %d, want %d", got, len(payload))
	}
}

// TestBulkUseAfterReleaseOverSM: after Release the shared slot is
// withdrawn and the pull falls back to the RPC path, which stays
// authoritative and reports ErrBadBulk — the §7 guard survives the
// zero-copy shortcut.
func TestBulkUseAfterReleaseOverSM(t *testing.T) {
	ca, cb, ra, _ := classPair(t, "sm")
	payload := make([]byte, 8<<10)
	b := ca.Expose(payload)
	ca.Release(b)
	// The failure crosses the wire as a remote error, so match the
	// ErrBadBulk text rather than the sentinel value.
	if _, err := cb.PullBulk(b); err == nil || !strings.Contains(err.Error(), ErrBadBulk.Error()) {
		t.Fatalf("use-after-release: want remote ErrBadBulk, got %v", err)
	}
	if got := ra.Gauge("na.shm.mapped.bytes").Value(); got != 0 {
		t.Fatalf("released region still mapped: %d bytes", got)
	}
}

// TestBulkArenaMissFallsBackToRPC: a region the exposer could not publish
// (its id lands on an export-table slot a live region holds) is still
// pullable — the arena miss sends the puller down the chunked RPC path,
// byte-identical, over the same dual endpoints, whose one send path is the
// gathered one.
func TestBulkArenaMissFallsBackToRPC(t *testing.T) {
	ca, cb, ra, rb := classPair(t, "sm")
	if _, ok := ca.ep.(na.GatherSender); !ok {
		t.Fatal("a dual endpoint does not satisfy na.GatherSender")
	}
	holder := ca.Expose([]byte("holds the slot"))
	defer ca.Release(holder)
	// Bulk ids count up by one; the table has 4096 slots (the default, what
	// ListenDual gives), so the 4096th id after holder's is on its slot.
	ca.nextBk.Add(4096 - 1)
	payload := make([]byte, eagerLimit+4096)
	for i := range payload {
		payload[i] = byte(i * 29)
	}
	b := ca.Expose(payload)
	defer ca.Release(b)
	if got := ra.Counter("na.shm.expose.fallback").Value(); got != 1 {
		t.Fatalf("na.shm.expose.fallback = %d, want 1: the ids did not collide", got)
	}

	got, err := cb.PullBulk(b)
	if err != nil {
		t.Fatalf("PullBulk: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("pulled bytes differ")
	}
	if local, fell := rb.Counter("na.shm.pull.local").Value(), rb.Counter("na.shm.pull.fallback").Value(); local != 0 || fell != 1 {
		t.Fatalf("na.shm.pull.local = %d, na.shm.pull.fallback = %d, want 0 and 1", local, fell)
	}
	if served := ra.Counter("mercury.serve.count{rpc=__mercury/bulk_pull}").Value(); served == 0 {
		t.Fatal("the exposer served no bulk_pull RPC: where did the bytes come from?")
	}
}
