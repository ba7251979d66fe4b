#!/bin/sh
# Tier-1 gate: everything here must pass before a change lands.
# `./ci.sh cover` runs only the first test pass and the coverage floor checks.
set -eux

# check_cover <floor> <pkgs or files...>: statement coverage floor, read
# from the coverprofile the first test pass writes. A package argument
# (./internal/obs/) holds the package to the floor; a file argument
# (./internal/core/batch.go) holds that file alone. Each package's
# statements are covered by its own tests only. An argument that does not
# show up in the profile fails the check, so a renamed file cannot drop out
# of its gate unseen. Fuzz seed corpora run as ordinary tests in that pass.
check_cover() {
    floor=$1
    shift
    mod=$(go list -m)
    units=
    for arg; do
        unit=${arg#./}
        units="$units $mod/${unit%/}"
    done
    awk -v floor="$floor" -v units="$units" '
        NR > 1 {  # line 1 is the "mode:" header
            file = $1; sub(/:.*/, "", file)
            dir = file; sub(/\/[^\/]*$/, "", dir)
            stmts[file] += $2; stmts[dir] += $2
            if ($3 > 0) { covered[file] += $2; covered[dir] += $2 }
        }
        END {
            n = split(units, want, " ")
            for (i = 1; i <= n; i++) {
                u = want[i]
                if (!stmts[u]) { print u " missing from the coverprofile"; exit 1 }
                pct = 100 * covered[u] / stmts[u]
                printf "%-44s %.1f%%\n", u, pct
                if (pct < floor) { bad = 1 }
            }
            if (bad) { print "coverage below the " floor "% floor"; exit 1 }
        }' "$profile"
}

profile=$(mktemp)
trap 'rm -f "$profile"' EXIT
if [ "${1:-}" != "cover" ]; then
    go build ./...
    go vet ./...
fi
# Every test once without the race detector, writing the coverprofile every
# floor at the end reads — this is the pass that asserts the allocs/op
# ceilings of internal/bench/micro_test.go (stage, pull, composite, batcher,
# warm iso execute, volume execute, buffer-pool recycle, and the two that
# hold the TCP round trip at zero: TestTCPStageAllocsCeiling, a 64 KiB block
# staged per block into a daemon, and TestTCPCallAllocsCeiling, a 64 KiB
# call whose caller recycles its response) and the control plane's two
# (TestControlIterationAllocsCeiling, an empty activate + execute +
# deactivate on two servers, there, and internal/ssg's
# TestGossipRoundAllocsCeiling, one SWIM probe with nothing to gossip), and
# one bytes ceiling, TestIsoIterationBytesCeiling (a warm gs_iso_inproc
# iteration on two servers: at most 256 KiB of heap and no buffer pool
# miss), all of which skip under -race but not
# under coverage, whose counters allocate nothing — and once with it. Both
# passes carry every gate there is no separate step for: the goroutine-leak
# checks (endpoint teardown, overload shed-and-recover, NBStage bound,
# batcher drain, controller stop), the pooled response channels'
# late-response check (mercury's TestLateResponseNeverReachesNextCall),
# crash recovery against the replicated-checkpoint oracle, the stage-retry
# buffer-ownership chaos suites (raw, compressed, coalesced, over sm+tcp),
# the full stack over sm, a daemon that serves on, with nothing of either
# left on disk, after an sm client process is SIGKILLed mid-stage, the fuzz
# seed corpora, and the elastic conformance and live closed-loop suites.
go test -timeout 300s -coverprofile="$profile" ./...
if [ "${1:-}" != "cover" ]; then
    go test -race -timeout 600s ./...
    # Benchmark gate: benchmark/ is a module of its own (`replace colza => ../`),
    # so nothing above builds it and a changed signature under internal/ would
    # break it unseen. Its tests run here, then a 2 s run of four workloads on a
    # real deployment, each of which must exit 0 with every oracle check passed:
    # the per-block TCP stage path, the iso execute path (its oracle holds the
    # triangle count and every ring slot's PNG hash), the coalesced stage
    # path over the sm+tcp arenas — one workload on each side of the handle's
    # by-transport choice — and the volume execute path over TCP (its oracle
    # holds the cell count). Speed is measured by `benchmark/run.sh` against
    # the parent commit (BENCHMARK.json), not gated here.
    (cd benchmark && go test ./...)
    smoke=$(mktemp)
    for workload in mb_stage_tcp_perblock gs_iso_inproc mb_stage_sm_batched dwi_volume_tcp; do
        bash benchmark/run.sh --workload "$workload" --seconds 2 --trace 0 > "$smoke"
        tail -n 1 "$smoke"
        tail -n 1 "$smoke" | grep -q '"correct":true'
    done
    rm -f "$smoke"
    # Figure gate: the four deterministic figures too slow at full scale for
    # every test run (internal/bench's notGolden: table2, fig7, fig10,
    # ext-autoscale) regenerate here and must match results_csv/ byte for
    # byte, as TestFiguresMatchResultsCSV holds the other ten.
    figs=$(mktemp -d)
    go run ./cmd/colza-bench -csv "$figs" table2 fig7 fig10 ext-autoscale > "$figs/log"
    for fig in table2 fig7 fig10 ext-autoscale; do
        cmp "$figs/$fig.csv" "results_csv/$fig.csv"
    done
    rm -rf "$figs"
fi
# The floors, checked last. 60%: the packages whose correctness the rest of
# the stack leans on (metrics math, collective algorithms, image
# compositing). 90%: the codec layer, which decodes whatever a client staged
# (the untrusted side of the wire); the elastic controller, with the resize
# policy in it, which actuates real process launches and membership leaves;
# and, per file, the client
# stage path — the frame codec (it also decodes what a client sent), the one
# send function every Stage goes through, the batcher, whose retry
# re-exposes a shared payload long after the callers' buffers were recycled,
# and the codec step, which decides which bytes go on the wire and owns the
# delta mismatch and invalidation steps: a missed branch there is a silent
# data-corruption path; the checkpoint file, which holds every line that
# moves pipeline state between servers (rounds, the leave, the drop of
# superseded entries, recovery); and
# the bulk arena, which maps the memfd a colocated peer hands it and reads a
# header and slot words out of memory that peer writes (what its tests do not
# reach is the memfd and mmap error branches), with the RPC layer's bulk file,
# which reserves, exposes and releases regions of that shared memory and
# serves them to pullers that cannot map it; the stream endpoint, which
# reads every byte a peer sends (length words that may lie, frames cut
# short, control messages passing descriptors) and hands each frame out in a
# pooled buffer, with the RPC file
# that puts every request frame back once its handler is done and hands
# every one-way frame to the server's MoNA instance; the cost
# model every number of Figs. 5-10 and ext-autoscale is computed in; and
# the iso execute's kernels — the rasterizer, the isosurface extraction with
# its crossing table, the mesh they share and the clip — which produce every
# pixel the benchmark's oracle hashes, and whose pixel-centre box,
# discarded-voxel skip, kept-side skip and shared-vertex lookups each sit
# behind a guard that only a test reaching both of its sides checks; the
# volume splatter, whose integer sums are the volume pipeline's picture on
# any number of ranks and whose resolve reads the sum a reduction brought
# to the root; the
# image file, whose PNG writer writes every image the benchmark's oracle
# hashes and whose decoder reads the composited frame at the root; and the
# unstructured
# grid file, whose decoder turns untrusted staged bytes into the cells and
# arrays the volume pipeline indexes (one unchecked connectivity entry there
# crashed every server that executed the block); likewise the image-data
# file, whose decoder feeds every staged iso block to the extraction, and
# the compositor file, whose mergeEncoded reads every frame a compositing
# peer sends and folds it into the accumulator in place (a frame of another
# size must spoil the accumulator's header, not vanish); and the
# three files that fold and route what a MoNA peer sends — the collectives'
# reduction ops, which fold each peer's contribution into the accumulator
# (one shorter than the accumulator must fold into its prefix, not read past
# its end), the collective algorithms, which own the accumulator copies and
# hand every folded contribution's frame back to the communicator that lent
# it (a frame handed back twice, or while still read, corrupts a later
# message), and the MoNA instance, which routes every collective frame
# that reaches its server's one endpoint and parks or drops those for
# communicators it does not hold; and the catalyst
# pipelines' staging store and stats pipeline — the store decides whether
# a block that reaches it twice is kept, dropped or refused (a missed
# branch there can count a block twice in a picture), and the stats file holds
# the one reduction record whose every key must encode as JSON, and the
# checkpoint parser that keeps non-finite moments out of it. Last, the
# two files that decode what a peer sends every iteration: the control
# frames of the 2PC, execute and deactivate, and SWIM's messages.
check_cover 60 ./internal/obs/ ./internal/collectives/ ./internal/icet/
check_cover 90 ./internal/codec/ ./internal/elastic/
check_cover 90 ./internal/core/stagewire.go ./internal/core/stagesend.go ./internal/core/batch.go ./internal/core/stagecodec.go ./internal/core/checkpoint.go
check_cover 90 ./internal/na/arena.go ./internal/mercury/bulk.go ./internal/na/tcp.go ./internal/mercury/mercury.go
check_cover 90 ./internal/bench/simtime.go
check_cover 90 ./internal/render/raster.go ./internal/vtk/isosurface.go ./internal/vtk/crossings.go ./internal/vtk/mesh.go \
    ./internal/vtk/clip.go ./internal/vtk/ugrid.go ./internal/vtk/imagedata.go ./internal/render/image.go \
    ./internal/render/volume.go ./internal/icet/icet.go
check_cover 90 ./internal/collectives/ops.go ./internal/collectives/collectives.go ./internal/mona/mona.go
check_cover 90 ./internal/catalyst/stats.go ./internal/catalyst/backend.go
check_cover 90 ./internal/core/ctrlwire.go ./internal/ssg/wire.go
