package core

import (
	"encoding/binary"
	"encoding/json"
	"slices"
	"sync"
	"testing"
)

// statefulPipeline accumulates the number of bytes staged into it across
// iterations (a running total — the kind of cross-iteration state the
// paper's future work (3) is about) and supports export/import merging.
type statefulPipeline struct {
	mu    sync.Mutex
	total uint64
	iter  uint64
}

func (s *statefulPipeline) Activate(ctx IterationContext) error {
	s.mu.Lock()
	s.iter = ctx.Iteration
	s.mu.Unlock()
	return nil
}

func (s *statefulPipeline) Stage(it uint64, meta BlockMeta, data []byte) error {
	s.mu.Lock()
	s.total += uint64(len(data))
	s.mu.Unlock()
	return nil
}

func (s *statefulPipeline) Execute(it uint64) (ExecResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ExecResult{Summary: map[string]float64{"total": float64(s.total)}}, nil
}

func (s *statefulPipeline) Deactivate(it uint64) error { return nil }
func (s *statefulPipeline) Destroy() error             { return nil }

func (s *statefulPipeline) ExportState() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, s.total)
	return out, nil
}

func (s *statefulPipeline) ImportState(data []byte) error {
	if len(data) != 8 {
		return ErrNoSuchPipeline // any error will do for the test
	}
	s.mu.Lock()
	s.total += binary.LittleEndian.Uint64(data)
	s.mu.Unlock()
	return nil
}

var _ StatefulBackend = (*statefulPipeline)(nil)

func init() {
	RegisterPipelineType("stateful", func(cfg json.RawMessage) (Backend, error) {
		return &statefulPipeline{}, nil
	})
}

// TestStatefulMigrationSkippedForLastServer: the last server has nobody to
// hand its state to; leaving must still work, and the status says what left
// with it.
func TestStatefulMigrationSkippedForLastServer(t *testing.T) {
	d := deploy(t, 1)
	if err := d.admin.CreatePipeline(d.servers[0].Addr(), "acc", "stateful", nil); err != nil {
		t.Fatal(err)
	}
	if err := d.admin.RequestLeave(d.servers[0].Addr()); err != nil {
		t.Fatal(err)
	}
	st := d.servers[0].Provider.LastMigration()
	if st == nil || st.Attempted != 1 || st.Migrated != 0 || !slices.Equal(st.Failed, []string{"acc"}) {
		t.Fatalf("leave status = %+v, want acc attempted and left without a taker", st)
	}
	if n := d.servers[0].Obs.Counter("core.migrate.errors").Value(); n != 1 {
		t.Fatalf("migrate.errors = %d, want 1", n)
	}
}
