#!/bin/sh
# equivalence.sh REV — does this working tree decide exactly as REV?
#
# Builds the mcsched CLI from `git archive REV` and from the working tree,
# then runs both binaries on the same inputs and compares stdout and exit
# status, pair by pair:
#   list       mcsched list
#   gen        gen -m 2 -uhh U -ulh 0.25 -ull 0.3 -seed S, for S = 1–50,
#              U in 0.35 0.45 0.55 0.65, once implicit, once -constrained
#   analyze    analyze -test Y on every generated set (the working tree's
#              copy), for every test Y that the working tree's
#              `mcsched list` prints
#   partition  partition -q -m 2 -strategy X -test Y on every generated set,
#              for every strategy X and test Y that `mcsched list` prints
#   simulate   simulate -test Y -trace 20 -scenario C on every partition the
#              working tree accepted with -strategy CU-UDP (the default)
#              under test Y, for every scenario C
# Prints the match counts per kind and every pair that differs; exits 1
# when any pair differs. Takes about an hour on two cores (about 76 000
# runs, 9 000 of them simulations).
set -eu

rev=${1:?usage: equivalence.sh REV}
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/src" "$work/sets" "$work/parts"

git -C "$root" archive "$rev" | tar -x -C "$work/src"
(cd "$work/src" && go build -o "$work/old" ./cmd/mcsched)
(cd "$root" && go build -o "$work/new" ./cmd/mcsched)

same=0 differ=0 ok=0 failed=0
# pair IN ARGS...: run both binaries on ARGS with stdin from IN, side by
# side; leaves the working tree's stdout in $work/new.out.
pair() {
	in=$1
	shift
	"$work/old" "$@" <"$in" >"$work/old.out" 2>/dev/null &
	old=$!
	s_new=0
	"$work/new" "$@" <"$in" >"$work/new.out" 2>/dev/null || s_new=$?
	s_old=0
	wait "$old" || s_old=$?
	if [ "$s_old" = "$s_new" ] && cmp -s "$work/old.out" "$work/new.out"; then
		same=$((same + 1))
		[ "$s_new" != 0 ] || ok=$((ok + 1))
	else
		differ=$((differ + 1))
		from=
		[ "$in" = /dev/null ] || from=" < $(basename "$in")"
		echo "differs (exit $s_old vs $s_new): mcsched $*$from" >&2
	fi
}
# report KIND: print and reset the counters.
report() {
	printf '%-10s %d of %d identical (%d exit 0)\n' "$1" "$same" $((same + differ)) "$ok"
	failed=$((failed + differ))
	same=0 differ=0 ok=0
}

pair /dev/null list
report list

for model in implicit constrained; do
	flag=
	[ "$model" = implicit ] || flag=-constrained
	for u in 0.35 0.45 0.55 0.65; do
		for s in $(seq 1 50); do
			pair /dev/null gen -m 2 -uhh "$u" -ulh 0.25 -ull 0.3 -seed "$s" $flag
			mv "$work/new.out" "$work/sets/$model-$u-$s.json"
		done
	done
done
report gen

tests=$("$work/new" list | sed -n '/^tests:/,$p' | sed -n 's/^  //p')
strategies=$("$work/new" list | sed -n '/^strategies:/,/^tests:/p' | sed -n 's/^  //p')
for set in "$work"/sets/*.json; do
	for test in $tests; do
		pair "$set" analyze -test "$test"
	done
done
report analyze

# The partitions the working tree accepted under CU-UDP, one file each, and
# "FILE TEST" per line in parts.txt.
: >"$work/parts.txt"
n=0
for set in "$work"/sets/*.json; do
	for strategy in $strategies; do
		for test in $tests; do
			pair "$set" partition -q -m 2 -strategy "$strategy" -test "$test"
			if [ "$strategy" = CU-UDP ] && [ "$s_new" = 0 ]; then
				n=$((n + 1))
				mv "$work/new.out" "$work/parts/$n.json"
				echo "$work/parts/$n.json $test" >>"$work/parts.txt"
			fi
		done
	done
done
report partition

while read -r part test; do
	for scenario in losteady historm random overrun; do
		pair "$part" simulate -test "$test" -trace 20 -scenario "$scenario"
	done
done <"$work/parts.txt"
report simulate

[ "$failed" = 0 ]
