#!/usr/bin/env bash
# Builds the pipeline benchmark and the drserved daemon from the checkout's
# sources, then runs the benchmark with the given arguments.
#
# Run from the repository root:
#
#	bash pipebench/run.sh --workload cold-session --seed 1 --seconds 15 --trace 0
#	bash pipebench/run.sh --runs 10 --workload all --seconds 15
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build and module caches, temporary files, the
# binaries, per-run scratch directories and span files. Build output goes
# to standard error, so the last line of standard output is the result.
set -euo pipefail

root=$(pwd)
out="${root}/.bench_build"
mkdir -p "${out}/bin" "${out}/tmp" "${out}/work"

export GOCACHE="${out}/go-cache"
export GOMODCACHE="${out}/go-mod"
export GOTMPDIR="${out}/tmp"
export TMPDIR="${out}/tmp"
export XDG_CONFIG_HOME="${out}/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=-mod=readonly
export CGO_ENABLED=0

(
	cd "${root}/pipebench"
	go build -o "${out}/bin/pipebench" .
	go build -o "${out}/bin/drserved" repro/cmd/drserved
) >&2

exec "${out}/bin/pipebench" \
	--drserved "${out}/bin/drserved" \
	--workdir "${out}/work" \
	--spans-dir "${out}/spans" \
	"$@"
