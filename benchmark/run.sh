#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there, so that everything it reads and writes,
# the Go build cache included, stays inside the checkout.
#
#   bash benchmark/run.sh --workload vgg_stream --seed 1 --seconds 15 --trace 0
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOFLAGS=-modcacherw
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -buildvcs=false -o "$build/patdnn-benchmark" .)
cd "$root"
exec "$build/patdnn-benchmark" "$@"
