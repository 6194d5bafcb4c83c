#!/usr/bin/env bash
# Builds lobmark from source into .bench_build/ at the checkout root and runs
# it there. The Go build cache is kept inside the checkout too, so a run
# reads and writes nothing outside it.
set -euo pipefail
bench=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$bench")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -C "$bench" -o "$build/lobmark" .
cd "$root"
exec "$build/lobmark" -outdir "$bench/out" "$@"
