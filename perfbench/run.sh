#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload closed-loop --seed 1 --seconds 45 --trace 0
#
# Every build and run artefact (Go build cache, Go's config and telemetry
# directories, temp files, the binary, spans and CPU profiles) stays under
# .bench_build/ in the current directory. Without the repository around
# perfbench/ the build fails and the script exits non-zero without printing
# a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off PPROF_TMPDIR="$out/tmp"

go -C perfbench build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" --outdir "$out" "$@"
