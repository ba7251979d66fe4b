#!/bin/sh
# Tier-1 gate: everything here must pass before a change lands.
# `./ci.sh cover` runs only the coverage floor checks.
set -eux

# check_cover <floor> <pkgs or files...>: statement coverage floor, from the
# coverprofile of one test pass. A package argument (./internal/obs/) holds
# the package to the floor; a file argument (./internal/core/batch.go) runs
# its package's tests and holds that file alone. An argument that does not
# show up in the profile fails the check, so a renamed file cannot drop out
# of its gate unseen. Fuzz seed corpora run as ordinary tests in these passes.
check_cover() {
    floor=$1
    shift
    mod=$(go list -m)
    pkgs= units=
    for arg; do
        case $arg in
            *.go) pkgs="$pkgs ${arg%/*}/" ;;
            *) pkgs="$pkgs $arg" ;;
        esac
        unit=${arg#./}
        units="$units $mod/${unit%/}"
    done
    profile=$(mktemp)
    go test -count=1 -timeout 300s -coverprofile="$profile" $(printf '%s\n' $pkgs | sort -u)
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
    rm -f "$profile"
}

if [ "${1:-}" != "cover" ]; then
    go build ./...
    go vet ./...
    # Every test once without the race detector — this is the pass that asserts
    # the allocs/op ceilings of internal/bench/micro_test.go (stage, pull,
    # composite, batcher, warm iso execute, buffer-pool recycle), which skip
    # under -race — and once with it. Both passes carry every gate there is no separate step for: the
    # goroutine-leak checks (endpoint teardown, overload shed-and-recover, NBStage
    # bound, batcher drain, controller stop), crash recovery against the
    # replicated-checkpoint oracle, the stage-retry buffer-ownership chaos suites
    # (raw, compressed, coalesced, over sm+tcp), the full stack over sm, the fuzz
    # seed corpora, and the elastic conformance and live closed-loop suites.
    go test -timeout 300s ./...
    go test -race -timeout 600s ./...
    # Segment-cleanup sweep: the passes above ran servers and clients on sm+tcp
    # dual endpoints; a test run must not leave what a dual endpoint can orphan
    # — its unix socket (*.sock) and its bulk arena (*.blk) — in the default
    # segment directory, nor an e2e segment directory, in the temp tree.
    leftovers=$(find "${TMPDIR:-/tmp}" -maxdepth 2 \
        \( -name 'czsm-*' -o -path '*/colza-sm/*.sock' -o -path '*/colza-sm/*.blk' \) 2>/dev/null | head -20)
    if [ -n "$leftovers" ]; then
        echo "orphaned shared-memory segment files after tests:"
        echo "$leftovers"
        exit 1
    fi
    # Benchmark gate: benchmark/ is a module of its own (`replace colza => ../`),
    # so nothing above builds it and a changed signature under internal/ would
    # break it unseen. Its tests run here, then a 2 s run of three workloads on a
    # real deployment, each of which must exit 0 with every oracle check passed:
    # the per-block TCP stage path, the iso execute path (its oracle holds the
    # triangle count and every ring slot's PNG hash), and the coalesced stage
    # path over the sm+tcp arenas — one workload on each side of the handle's
    # by-transport choice. Speed is measured by `benchmark/run.sh` against the
    # parent commit (BENCHMARK.json), not gated here.
    (cd benchmark && go test ./...)
    smoke=$(mktemp)
    for workload in mb_stage_tcp_perblock gs_iso_inproc mb_stage_sm_batched; do
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
# the bulk arena, which reads a header and slot
# words out of memory another process writes (what its tests do not reach is
# the mmap/open/truncate error branches), with the RPC layer's bulk file,
# which reserves, exposes and releases regions of that shared memory and
# serves them to pullers that cannot map it; the stream endpoint, which
# reads every byte a peer sends (length words that may lie, frames cut
# short) and hands each frame out in a pooled buffer, with the RPC file
# that puts every request frame back once its handler is done; the cost
# model every number of Figs. 5-10 and ext-autoscale is computed in; and
# the iso execute's kernels — the rasterizer, the isosurface extraction and
# the clip — which produce every pixel the benchmark's oracle hashes, and
# whose pixel-centre box, discarded-voxel skip and kept-side skip each sit
# behind a guard that only a test reaching both of its sides checks; the
# image file, whose PNG writer writes every image the benchmark's oracle
# hashes; and the unstructured
# grid file, whose decoder turns untrusted staged bytes into the cells and
# arrays the volume pipeline indexes (one unchecked connectivity entry there
# crashed every server that executed the block); likewise the image-data
# file, whose decoder feeds every staged iso block to the extraction, and
# the framebuffer pool file, whose decoder reads every partial image a
# compositing peer sends, and the compositor file, whose region decoder
# writes every pixel range a binary-swap peer sends into the frame; and the
# two files that fold and route what a MoNA peer sends — the collectives'
# reduction ops, which fold each peer's contribution into the accumulator
# (one shorter than the accumulator must fold into its prefix, not read past
# its end), and the MoNA instance, which routes every frame and parks or
# drops those for communicators it does not hold.
check_cover 60 ./internal/obs/ ./internal/collectives/ ./internal/icet/
check_cover 90 ./internal/codec/ ./internal/elastic/
check_cover 90 ./internal/core/stagewire.go ./internal/core/stagesend.go ./internal/core/batch.go ./internal/core/stagecodec.go ./internal/core/checkpoint.go
check_cover 90 ./internal/na/arena.go ./internal/mercury/bulk.go ./internal/na/tcp.go ./internal/mercury/mercury.go
check_cover 90 ./internal/bench/simtime.go
check_cover 90 ./internal/render/raster.go ./internal/vtk/isosurface.go ./internal/vtk/clip.go ./internal/vtk/ugrid.go \
    ./internal/vtk/imagedata.go ./internal/render/pool.go ./internal/render/image.go ./internal/icet/icet.go
check_cover 90 ./internal/collectives/ops.go ./internal/mona/mona.go
