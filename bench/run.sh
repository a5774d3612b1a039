#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#	bash bench/run.sh -seed 1                 every workload, timed then traced
#	bash bench/run.sh -compare a.json b.json  compare two result files
#
# bench/ is a module of its own (kadre/bench, replace kadre => ../), so
# the build needs the repository around it. Everything the Go toolchain
# writes — build cache, module cache, temporaries, the binary — goes
# under .bench_build in the checkout, and neither $HOME nor a writable
# /tmp is needed.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
# The go command keeps telemetry counters under the user's config
# directory and may leave a reporting child behind; point it into the
# checkout and switch it off.
export XDG_CONFIG_HOME=$build/config
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
# No settings from outside the checkout, no workspace above it, no
# downloads, no C compiler.
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin

(cd "$root/bench" && go build -o "$build/kadbench" .)
cd "$root"
exec "$build/kadbench" -dir bench "$@"
