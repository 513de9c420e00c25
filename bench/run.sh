#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it; every argument
# is passed through (see main.go for the three modes). Build outputs, the Go
# build cache and data directories all stay in .bench_build/ at the checkout
# root, so a run writes nothing outside its checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOMODCACHE="$PWD/.bench_build/gomod" GOTOOLCHAIN=local
go build -C bench -o ../.bench_build/asdb-bench .
exec .bench_build/asdb-bench "$@"
