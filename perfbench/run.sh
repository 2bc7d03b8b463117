#!/usr/bin/env bash
# Builds the benchmark and the rankserve binary it drives from the sources of
# the checkout it sits in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload serve-topk --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and any
# temporary files stay under .bench_build/ (or $CARGO_TARGET_DIR when set), so
# the run reads and writes only inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ not found in $root)" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off

cd "$root/perfbench"
go build -o "$build/bin/perfbench" .
go build -o "$build/bin/rankserve" repro/cmd/rankserve
cd "$root"
exec "$build/bin/perfbench" -rankserve "$build/bin/rankserve" "$@"
