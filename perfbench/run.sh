#!/usr/bin/env bash
# Builds quantileserver, quantileagg and the perfbench program from this
# checkout, then runs perfbench with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and run scratch space all stay under
# .bench_build at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/quantileserver || ! -d cmd/quantileagg ]]; then
	echo "perfbench: $root is not a quantilelb checkout" >&2
	exit 2
fi
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
mkdir -p "$out/bin"
go build -o "$out/bin/" ./cmd/quantileserver ./cmd/quantileagg
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" -work "$out/work" "$@"
