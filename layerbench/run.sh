#!/usr/bin/env bash
# Builds the layered benchmark from the checkout's sources and runs it.
#
#   bash layerbench/run.sh --workload skewjoin --seed 1 --seconds 20 --trace 0
#
# Every build artifact, spill file and trace lands under .bench_build at the
# checkout root. The last line on stdout is the JSON result; build output goes
# to stderr.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/tmp" "${out}/config"
# Keep the toolchain's caches and state inside the checkout too.
export GOCACHE="${out}/gocache" GOTMPDIR="${out}/tmp" GOPATH="${out}/gopath" \
	XDG_CONFIG_HOME="${out}/config" GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "${root}/layerbench" && go build -o "${out}/layerbench" .) >&2
exec "${out}/layerbench" -dir "${out}" "$@"
