#!/usr/bin/env bash
# The command of BENCHMARK.json: builds the benchmark from source inside the
# checkout and runs it with the arguments given
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
#
# Everything the build and the run write — Go's build cache, temp files,
# spill files, traces — stays under .bench_build/ in the checkout.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp" "$build/home"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
# Go keeps telemetry counters and its module cache under $HOME; the module
# has no dependency to download.
export HOME=$build/home GOPATH=$build/gopath GOTOOLCHAIN=local GOPROXY=off

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" -out "$build/out" "$@"
