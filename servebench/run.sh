#!/usr/bin/env bash
# Builds the served-path benchmark from source and runs it. Run from the
# repository root; every argument is passed to the benchmark, e.g.
#
#   bash servebench/run.sh --workload hot-read --seed 1 --seconds 30 --trace 0
#
# The build, its caches and the Go toolchain's own state stay in
# .bench_build/, and so do trace files.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/servebench" && go build -buildvcs=false -trimpath -o "$build/servebench" .)
exec "$build/servebench" "$@"
