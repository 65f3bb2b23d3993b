#!/usr/bin/env bash
# Builds the benchmark program and the daemons it launches from the
# checkout's sources, then runs one benchmark workload.  Every build
# artefact, the Go build cache included, stays under .bench_build/.
#
#   bash perfbench/run.sh --workload hit_inline --seed 1 --seconds 40 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build/perfbench"
mkdir -p "${build}/bin" "${build}/tmp"

export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOTELEMETRY=off
export GOCACHE="${build}/gocache" GOPATH="${build}/gopath"
export GOMODCACHE="${build}/gopath/pkg/mod" GOENV=off
export GOTMPDIR="${build}/tmp" TMPDIR="${build}/tmp"

cd "${root}/perfbench"
go build -o "${build}/bin/perfbench" .
go build -o "${build}/bin/schedd" repro/cmd/schedd
go build -o "${build}/bin/schedrouter" repro/cmd/schedrouter

cd "${root}"
exec "${build}/bin/perfbench" -bin "${build}/bin" -work "${build}/work" "$@"
