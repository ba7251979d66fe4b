package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"colza/internal/catalyst"
	"colza/internal/codec"
	"colza/internal/collectives"
	"colza/internal/icet"
	"colza/internal/mercury"
	"colza/internal/minimpi"
	"colza/internal/mona"
	"colza/internal/na"
	"colza/internal/obs"
	"colza/internal/render"
	"colza/internal/vtk"
)

// Probes time one layer at a time through its exported functions, warm, on
// canonical inputs made from the run's seed: the first two Gray-Scott ring
// states (16 slabs each) and the four DWI blocks. Every probe repeats
// probeReps times after one discarded pass and reports the median, so a
// cold first pass (BENCH_6's 77 MB/s raw codec row) cannot decide a number.
const probeReps = 5

type probeSet map[string]metric

func medianOf(f func() float64) float64 {
	f()
	vals := make([]float64, probeReps)
	for i := range vals {
		vals[i] = f()
	}
	return median(vals)
}

func mibPerSec(bytes int, d time.Duration) float64 {
	return float64(bytes) / (1 << 20) / d.Seconds()
}

// probeInputs are the canonical datasets.
type probeInputs struct {
	shape  gsShape
	slabs  [2][]*vtk.ImageData // ring states 0 and 1
	grids  []*vtk.UnstructuredGrid
	gsEnc  [2][][]byte
	dwiEnc [][]byte
}

func newProbeInputs(seed int64, tiny bool) (*probeInputs, error) {
	sh := gsShapeFor(tiny)
	sh.ring = 2
	states, err := grayScottStates(seed, sh)
	if err != nil {
		return nil, err
	}
	p := &probeInputs{shape: sh, grids: dwiGrids(tiny)}
	for r := range p.slabs {
		p.slabs[r] = states[r]
		for _, img := range states[r] {
			p.gsEnc[r] = append(p.gsEnc[r], img.Encode())
		}
	}
	for _, g := range p.grids {
		p.dwiEnc = append(p.dwiEnc, g.Encode())
	}
	return p, nil
}

func totalLen(bufs [][]byte) int {
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	return n
}

// runProbes returns every probe metric.
func runProbes(seed int64, tiny bool) (probeSet, error) {
	in, err := newProbeInputs(seed, tiny)
	if err != nil {
		return nil, err
	}
	out := probeSet{}
	for _, step := range []func(*probeInputs, probeSet) error{
		probeObs, probeCodecs, probeVTKAndRender, probeComposite, probeTransports, probeMona,
	} {
		if err := step(in, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// --- obs ---------------------------------------------------------------------

// probeObs times a span (StartSpan + End) on a registry at the program's
// default trace capacity, before its ring fills and after. The deployments
// here run with traceCapacity instead (see deploy.go); this is the number a
// daemon at the default pays per span.
func probeObs(_ *probeInputs, out probeSet) error {
	const spans = 2000
	reg := obs.NewRegistry()
	key := obs.SpanKey{Pipeline: pipelineName}
	burst := func() float64 {
		t0 := time.Now()
		for i := 0; i < spans; i++ {
			reg.StartSpan("probe", key).End(nil)
		}
		return float64(time.Since(t0)) / 1e3 / spans
	}
	out["obs.span_us.fresh"] = metric{burst(), "us"}
	for len(reg.Trace()) < 8192 && reg.TraceDropped() == 0 {
		burst()
	}
	out["obs.span_us.full"] = metric{medianOf(burst), "us"}
	return nil
}

// --- codec -------------------------------------------------------------------

// probeCodecs times encode and decode of ring state 1. The delta codec
// XORs against state 0 first, through the same DeltaState the stage path
// keeps its bases in; that XOR is inside both timed regions.
func probeCodecs(in *probeInputs, out probeSet) error {
	cur, prev := in.gsEnc[1], in.gsEnc[0]
	raw := totalLen(cur)
	bases := codec.NewDeltaState(2 * raw)
	key := func(i int) codec.DeltaKey { return codec.DeltaKey{Pipeline: pipelineName, Field: "V", Block: i} }
	for i, b := range prev {
		bases.Remember(key(i), 0, b)
	}
	for _, name := range []string{"raw", "shuffle", "delta"} {
		c, err := codec.Lookup(name)
		if err != nil {
			return err
		}
		delta := name == "delta"
		scratch := make([][]byte, len(cur))
		encoded := make([][]byte, len(cur))
		decoded := make([][]byte, len(cur))
		for i, b := range cur {
			scratch[i] = make([]byte, len(b))
			encoded[i] = make([]byte, 0, c.MaxEncodedSize(len(b)))
			decoded[i] = make([]byte, 0, len(b))
		}
		var probeErr error
		enc := medianOf(func() float64 {
			t0 := time.Now()
			for i, b := range cur {
				src := b
				if delta {
					src = scratch[i]
					copy(src, b)
					if !bases.XORBase(key(i), 0, src) {
						probeErr = fmt.Errorf("no delta base for block %d", i)
					}
				}
				if encoded[i], err = c.Encode(encoded[i][:0], src); err != nil {
					probeErr = err
				}
			}
			return mibPerSec(raw, time.Since(t0))
		})
		dec := medianOf(func() float64 {
			t0 := time.Now()
			for i, e := range encoded {
				if decoded[i], err = c.Decode(decoded[i][:0], e, len(cur[i])); err != nil {
					probeErr = err
				}
				if delta {
					bases.XORBase(key(i), 0, decoded[i])
				}
			}
			return mibPerSec(raw, time.Since(t0))
		})
		if probeErr != nil {
			return fmt.Errorf("codec %s probe: %w", name, probeErr)
		}
		for i := range cur {
			if !bytes.Equal(decoded[i], cur[i]) {
				return fmt.Errorf("codec %s probe: block %d does not round-trip", name, i)
			}
		}
		out["codec."+name+".encode_mib_s"] = metric{enc, "MiB/s"}
		out["codec."+name+".decode_mib_s"] = metric{dec, "MiB/s"}
		out["codec."+name+".ratio"] = metric{float64(totalLen(encoded)) / float64(raw), "ratio"}
	}
	return nil
}

// --- vtk and render ------------------------------------------------------------

// probeVTKAndRender walks one iteration of each execute path outside the
// program's own timers: decode, isosurface, clip, rasterise, PNG on the
// Gray-Scott slabs; decode, merge, splat on the DWI blocks.
func probeVTKAndRender(in *probeInputs, out probeSet) error {
	var err error
	keep := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	out["vtk.imagedata_decode_mib_s"] = metric{medianOf(func() float64 {
		t0 := time.Now()
		for _, b := range in.gsEnc[0] {
			_, e := vtk.DecodeImageData(b)
			keep(e)
		}
		return mibPerSec(totalLen(in.gsEnc[0]), time.Since(t0))
	}), "MiB/s"}
	out["vtk.ugrid_decode_mib_s"] = metric{medianOf(func() float64 {
		t0 := time.Now()
		for _, b := range in.dwiEnc {
			_, e := vtk.DecodeUnstructuredGrid(b)
			keep(e)
		}
		return mibPerSec(totalLen(in.dwiEnc), time.Since(t0))
	}), "MiB/s"}

	iso := gsIsoConfig(in.shape)
	var surface, clipped *vtk.TriangleMesh
	out["vtk.isosurface_s"] = metric{medianOf(func() float64 {
		t0 := time.Now()
		surface = &vtk.TriangleMesh{}
		for _, blk := range in.slabs[0] {
			for _, v := range iso.IsoValues {
				mesh, e := vtk.Isosurface(blk, iso.Field, v)
				keep(e)
				if e == nil {
					surface.Append(mesh)
				}
			}
		}
		return time.Since(t0).Seconds()
	}), "s"}
	plane := vtk.Plane{Normal: [3]float32{1, 0, 0}, Offset: float32(iso.Clip.Offset)}
	out["vtk.clip_s"] = metric{medianOf(func() float64 {
		t0 := time.Now()
		clipped = vtk.ClipMesh(surface, plane)
		return time.Since(t0).Seconds()
	}), "s"}
	out["vtk.triangles_per_iter"] = metric{float64(clipped.NumTriangles()), "count"}

	lo, hi := render.MeshBounds(clipped)
	cam := render.DefaultCamera(lo, hi)
	var frame *render.Image
	out["render.rasterize_s"] = metric{medianOf(func() float64 {
		t0 := time.Now()
		frame = render.NewImage(iso.Width, iso.Height)
		render.RasterizeMesh(frame, cam, clipped, render.CoolWarm, iso.ScalarRange)
		return time.Since(t0).Seconds()
	}), "s"}
	out["render.png_encode_s"] = metric{medianOf(func() float64 {
		t0 := time.Now()
		_, e := frame.PNG()
		keep(e)
		return time.Since(t0).Seconds()
	}), "s"}

	vol := dwiVolumeConfig()
	var merged *vtk.UnstructuredGrid
	out["vtk.merge_s"] = metric{medianOf(func() float64 {
		t0 := time.Now()
		var e error
		merged, e = vtk.MergeUnstructured(in.grids...)
		keep(e)
		return time.Since(t0).Seconds()
	}), "s"}
	if err != nil {
		return fmt.Errorf("vtk probe: %w", err)
	}
	out["vtk.cells_per_iter"] = metric{float64(merged.NumCells()), "count"}
	glo, ghi := render.GridBounds(merged)
	vcam := render.DefaultCamera(glo, ghi)
	out["render.splat_s"] = metric{medianOf(func() float64 {
		t0 := time.Now()
		im := render.NewImage(vol.Width, vol.Height)
		keep(render.SplatVolume(im, vcam, merged, render.VolumeOptions{
			Field: vol.Field, ScalarRange: vol.ScalarRange, ColorMap: render.CoolWarm, PointSize: vol.PointSize,
		}))
		return time.Since(t0).Seconds()
	}), "s"}
	if err != nil {
		return fmt.Errorf("render probe: %w", err)
	}
	return nil
}

// --- icet ----------------------------------------------------------------------

// probeComposite composites two ranks' frames of the pipelines' size over
// an in-memory communicator: the arithmetic of icet without a transport
// under it (mona.* has the transport).
func probeComposite(in *probeInputs, out probeSet) error {
	// A real frame on both ranks: the single-rank iso render of state 0.
	_, frame, err := catalyst.ExecuteIso(soloController(), in.slabs[0], gsIsoConfig(in.shape))
	if err != nil {
		return err
	}
	encoded := frame.Encode()
	for _, m := range []struct {
		name string
		mode icet.Mode
	}{{"icet.composite_tree_s", icet.Depth}, {"icet.composite_ordered_s", icet.Ordered}} {
		world := minimpi.World(2)
		var probeErr error
		secs := medianOf(func() float64 {
			var frames [2]*render.Image
			for r := range frames {
				if frames[r], err = render.DecodeImage(encoded); err != nil {
					probeErr = err
					return 0
				}
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, e := icet.Composite(frames[1], world[1], icet.TreeReduce, m.mode, 0); e != nil {
					probeErr = e
				}
			}()
			t0 := time.Now()
			_, e := icet.Composite(frames[0], world[0], icet.TreeReduce, m.mode, 0)
			d := time.Since(t0)
			wg.Wait()
			if e != nil {
				probeErr = e
			}
			return d.Seconds()
		})
		world[0].Finalize()
		if probeErr != nil {
			return fmt.Errorf("%s probe: %w", m.name, probeErr)
		}
		out[m.name] = metric{secs, "s"}
	}
	return nil
}

// --- na and mercury ------------------------------------------------------------

const (
	pingPongs    = 400
	streamFrames = 256
	streamFrame  = 64 << 10
	rpcCalls     = 400
)

// probeTransports measures, per transport, the bare endpoints and the RPC
// layer on top of them. Latencies are round trips.
func probeTransports(_ *probeInputs, out probeSet) error {
	for _, t := range []string{transportInproc, transportTCP, transportSM} {
		if err := probeNA(t, out); err != nil {
			return fmt.Errorf("na probe on %s: %w", t, err)
		}
		if err := probeMercury(t, out); err != nil {
			return fmt.Errorf("mercury probe on %s: %w", t, err)
		}
	}
	return nil
}

func endpointPair(t string) (*fabric, na.Endpoint, na.Endpoint, error) {
	fab, err := newFabric(t)
	if err != nil {
		return nil, nil, nil, err
	}
	a, err := fab.listen()
	if err != nil {
		fab.close()
		return nil, nil, nil, err
	}
	b, err := fab.listen()
	if err != nil {
		a.Close()
		fab.close()
		return nil, nil, nil, err
	}
	return fab, a, b, nil
}

func probeNA(t string, out probeSet) error {
	fab, a, b, err := endpointPair(t)
	if err != nil {
		return err
	}
	defer fab.close()
	// b echoes small frames and acknowledges every full stream.
	done := make(chan struct{})
	go func() {
		defer close(done)
		got := 0
		for {
			from, data, err := b.Recv()
			if err != nil {
				return
			}
			if len(data) < streamFrame {
				err = b.Send(from, data)
			} else if got += len(data); got >= streamFrames*streamFrame {
				got = 0
				err = b.Send(from, []byte{1})
			}
			if err != nil {
				return
			}
		}
	}()
	defer func() {
		a.Close()
		b.Close()
		<-done
	}()

	ping := make([]byte, 8)
	rtts := make([]float64, 0, pingPongs)
	for i := 0; i < pingPongs+pingPongs/4; i++ {
		t0 := time.Now()
		if err := a.Send(b.Addr(), ping); err != nil {
			return err
		}
		if _, _, err := a.Recv(); err != nil {
			return err
		}
		if i >= pingPongs/4 {
			rtts = append(rtts, float64(time.Since(t0))/1e3)
		}
	}
	out["na.pingpong_p50_us."+t] = metric{median(rtts), "us"}

	frame := make([]byte, streamFrame)
	var streamErr error
	rate := medianOf(func() float64 {
		t0 := time.Now()
		for i := 0; i < streamFrames; i++ {
			if err := a.Send(b.Addr(), frame); err != nil {
				streamErr = err
			}
		}
		if _, _, err := a.Recv(); err != nil {
			streamErr = err
		}
		return mibPerSec(streamFrames*streamFrame, time.Since(t0))
	})
	out["na.stream_mib_s."+t] = metric{rate, "MiB/s"}
	return streamErr
}

func probeMercury(t string, out probeSet) error {
	fab, epA, epB, err := endpointPair(t)
	if err != nil {
		return err
	}
	defer fab.close()
	a, b := mercury.New(epA), mercury.New(epB)
	defer a.Close()
	defer b.Close()
	b.Register("null", func(mercury.Request) ([]byte, error) { return nil, nil })

	rtts := make([]float64, 0, rpcCalls)
	for i := 0; i < rpcCalls+rpcCalls/4; i++ {
		t0 := time.Now()
		if _, err := a.Call(b.Addr(), "null", nil, rpcTimeout); err != nil {
			return err
		}
		if i >= rpcCalls/4 {
			rtts = append(rtts, float64(time.Since(t0))/1e3)
		}
	}
	out["mercury.rpc_rtt_p50_us."+t] = metric{median(rtts), "us"}

	for _, sz := range []struct {
		label string
		bytes int
		pulls int
	}{{"64k", 64 << 10, 128}, {"4m", 4 << 20, 8}} {
		src := make([]byte, sz.bytes)
		for i := range src {
			src[i] = byte(i * 131)
		}
		dst := make([]byte, sz.bytes)
		// Expose and Release are inside the timed loop, as on the stage path
		// where every block is exposed once: on sm the exposure is the copy
		// into the shared arena.
		var pullErr error
		rate := medianOf(func() float64 {
			t0 := time.Now()
			for i := 0; i < sz.pulls; i++ {
				bulk := a.Expose(src)
				if err := b.PullBulkInto(bulk, dst); err != nil {
					pullErr = err
				}
				a.Release(bulk)
			}
			return mibPerSec(sz.pulls*sz.bytes, time.Since(t0))
		})
		if pullErr != nil {
			return pullErr
		}
		if !bytes.Equal(src, dst) {
			return fmt.Errorf("%s pull returned wrong bytes", sz.label)
		}
		out["mercury.bulk_pull_mib_s."+t+"."+sz.label] = metric{rate, "MiB/s"}
	}
	return nil
}

// --- mona ----------------------------------------------------------------------

const (
	monaReduces = 300
	monaFrames  = 32
)

// probeMona runs the two collectives an execute issues — the 48-byte
// bounds all-reduce and frame-sized sends — between two MoNA instances.
func probeMona(in *probeInputs, out probeSet) error {
	iso := gsIsoConfig(in.shape)
	frame := make([]byte, render.NewImage(iso.Width, iso.Height).EncodedSize())
	for _, t := range []string{transportInproc, transportTCP} {
		fab, err := newFabric(t)
		if err != nil {
			return err
		}
		var comms [2]*mona.Comm
		var addrs []string
		insts := make([]*mona.Instance, 2)
		for r := range insts {
			ep, err := fab.listenMona()
			if err != nil {
				return err
			}
			insts[r] = mona.NewInstance(ep)
			// Finalizing also unblocks the peer goroutine on an error path.
			defer insts[r].Finalize()
			addrs = append(addrs, insts[r].Addr())
		}
		for r := range insts {
			if comms[r], err = insts[r].CreateComm(1, addrs); err != nil {
				return err
			}
		}
		// Rank 1 mirrors rank 0's sequence.
		peer := make(chan error, 1)
		go func() {
			c := comms[1]
			for i := 0; i < monaReduces; i++ {
				if _, err := c.AllReduce(1, make([]byte, 48), collectives.MaxFloat32); err != nil {
					peer <- err
					return
				}
			}
			for rep := 0; rep < probeReps+1; rep++ {
				for i := 0; i < monaFrames; i++ {
					if _, err := c.Recv(0, 2); err != nil {
						peer <- err
						return
					}
				}
				if err := c.Send(0, 3, []byte{1}); err != nil {
					peer <- err
					return
				}
			}
			peer <- nil
		}()
		var probeErr error
		lat := make([]float64, 0, monaReduces)
		for i := 0; i < monaReduces; i++ {
			t0 := time.Now()
			if _, err := comms[0].AllReduce(1, make([]byte, 48), collectives.MaxFloat32); err != nil {
				probeErr = err
				break
			}
			if i >= monaReduces/4 {
				lat = append(lat, float64(time.Since(t0))/1e3)
			}
		}
		rate := 0.0
		if probeErr == nil {
			rate = medianOf(func() float64 {
				t0 := time.Now()
				for i := 0; i < monaFrames; i++ {
					if err := comms[0].Send(1, 2, frame); err != nil {
						probeErr = err
					}
				}
				if _, err := comms[0].Recv(1, 3); err != nil {
					probeErr = err
				}
				return mibPerSec(monaFrames*len(frame), time.Since(t0))
			})
		}
		if probeErr == nil {
			probeErr = <-peer
		}
		if probeErr != nil {
			return fmt.Errorf("mona probe on %s: %w", t, probeErr)
		}
		out["mona.allreduce_p50_us."+t] = metric{median(lat), "us"}
		out["mona.sendrecv_mib_s."+t] = metric{rate, "MiB/s"}
	}
	return nil
}
