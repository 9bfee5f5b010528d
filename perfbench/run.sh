#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and
# the binary go to .bench_build/ in that root, so nothing is written
# outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
env GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off \
	go -C "$root/perfbench" build -o "$build/perfbench" .

# Pin the run to one CPU, the one on which the yardstick (yardstick.go)
# ran fastest, so that each repeat and the yardstick measurements around
# it run on the same CPU. On a shared host the CPUs' speed for
# memory-bound code differs by up to 40% and changes over minutes as
# neighbours come and go. Without taskset the run is not pinned.
bin="$build/perfbench"
cpus=()
if list=$(taskset -pc $$ 2>/dev/null); then
	IFS=, read -ra parts <<<"${list##*: }"
	for part in "${parts[@]}"; do
		if [[ $part == *-* ]]; then
			for ((c = ${part%-*}; c <= ${part#*-}; c++)); do cpus+=("$c"); done
		else
			cpus+=("$part")
		fi
	done
fi
best= best_ns=
for cpu in "${cpus[@]:0:8}"; do
	ns=$(taskset -c "$cpu" "$bin" "$@" --probe 2>/dev/null) || continue
	if [[ -z $best_ns ]] || ((ns < best_ns)); then
		best=$cpu best_ns=$ns
	fi
done
if [[ -n $best ]]; then
	exec taskset -c "$best" "$bin" "$@"
fi
exec "$bin" "$@"
