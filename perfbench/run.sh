#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, from the root of that tree:
#
#   bash perfbench/run.sh --workload pipelined-mix --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build): the Go build cache and
# temporary files, the binary and the traced run's spans. Without the
# repository's sources next to perfbench/, the build fails and so does
# this script.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)

commit=unknown
if [ -e .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
export PERFBENCH_COMMIT=$commit PERFBENCH_OUT=$out
exec "$out/perfbench" "$@"
