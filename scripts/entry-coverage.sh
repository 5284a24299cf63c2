#!/bin/sh
# entry-coverage.sh OUT — which non-test statements do the production entry
# points reach?
#
# Builds mcschedd, mcsched, mcfigures and the benchmark daemon with coverage
# instrumentation over every mcsched package, then drives them the way they
# are used: mcload's five workloads (whose daemon inherits GOFLAGS and
# GOCOVERDIR and writes its counters when SIGTERM stops it), every example,
# mcsched over every strategy × test (and simulates each test's partition
# under that test's runtime), and mcfigures over every figure.
# Writes, under OUT:
#   func.txt       go tool covdata func: coverage of every function
#   unreached.txt  the functions no run entered (0.0 %)
#   profile.txt    a profile for go tool cover -html
#   summary.md     statement coverage overall and per package, and the
#                  count of functions never entered
# It is a map, not a gate: nothing here fails on a low number.
set -eu

out=${1:?usage: entry-coverage.sh OUT}
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$out/cov" "$out/bin" "$out/run"
out=$(cd "$out" && pwd)
cd "$root"

export GOFLAGS="-cover -coverpkg=mcsched/..."
export GOCOVERDIR="$out/cov"

go build -o "$out/bin/" ./cmd/mcsched ./cmd/mcschedd ./cmd/mcfigures

# The benchmark's five workloads, traced (its daemon is built from this
# checkout with the same GOFLAGS).
go run -C cmd/mcload . -trace 1 -out "$out/run/mcload.json" >/dev/null

for ex in examples/*/; do
	go run "./$ex" >/dev/null
done

cli="$out/bin/mcsched"
"$cli" list >/dev/null
"$cli" help >/dev/null
"$cli" gen -m 4 -seed 7 -o "$out/run/set.json"
"$cli" gen -m 4 -seed 7 -constrained -o "$out/run/cset.json"
"$cli" analyze -i "$out/run/set.json" >/dev/null
tests=$("$cli" list | sed -n '/^tests:/,$p' | sed -n 's/^  //p')
for strategy in $("$cli" list | sed -n '/^strategies:/,/^tests:/p' | sed -n 's/^  //p'); do
	for test in $tests; do
		for set in set cset; do
			# A set a strategy cannot place is an answer, not an error.
			"$cli" partition -q -m 4 -strategy "$strategy" -test "$test" \
				-i "$out/run/$set.json" -o "$out/run/part.json" 2>/dev/null || true
		done
	done
done
# Each test's own partition, simulated under the runtime that test certified.
for test in $tests; do
	"$cli" partition -q -m 4 -test "$test" -i "$out/run/set.json" -o "$out/run/part.json"
	for scenario in losteady historm random overrun; do
		"$cli" simulate -test "$test" -i "$out/run/part.json" -scenario "$scenario" -trace 20 >/dev/null
	done
done

"$out/bin/mcfigures" -fig all -sets 20 -speedup -out "$out/run/figures" >/dev/null

pkgs=$(go list ./... | paste -sd, -)
go tool covdata func -i "$out/cov" >"$out/func.txt"
awk '$NF == "0.0%" { print }' "$out/func.txt" >"$out/unreached.txt"
go tool covdata percent -i "$out/cov" -pkg "$pkgs" >"$out/percent.txt"
go tool covdata textfmt -i "$out/cov" -pkg "$pkgs" -o "$out/profile.txt"
{
	echo "Statements reached over \`./...\`: $(go tool cover -func="$out/profile.txt" | awk 'END { print $NF }')"
	echo
	echo "| package | statements reached | functions never entered |"
	echo "|---|---|---|"
	while read -r pkg _ pct _; do
		n=$(awk -v p="$pkg/" 'index($1, p) == 1 && index(substr($1, length(p) + 1), "/") == 0' "$out/unreached.txt" | wc -l)
		echo "| \`$pkg\` | $pct | $n |"
	done <"$out/percent.txt"
} >"$out/summary.md"
