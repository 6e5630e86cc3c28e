#!/usr/bin/env bash
# One traced run (--trace 1) of each bench/ workload on a parent
# revision and on this checkout, then, per workload, the digest and
# every per-layer metric BENCHMARK.json counts in whole units (unit
# "count", or "1/job": a count per job), parent beside change, each
# marked equal or moved.  Counts are deterministic, so one run per side
# shows which layers' work a change moved and which it left alone;
# timings are bench-pairs.sh's business.
#
#   [MAY_MOVE="metric ..."] scripts/bench-counts.sh PARENT "WORKLOAD..." [SEED=42]
#
# It is a gate: after printing every table it exits 1 if the digest or
# any count not named in MAY_MOVE moved on any workload, and names
# them.  A count the change is meant to move goes in MAY_MOVE, and
# the table still shows it, marked "moved (may)".
#
# Both sides are built once, as bench-pairs.sh builds them: the parent
# is exported with `git archive` into .bench_build/counts/, so nothing
# is written outside .bench_build/ and nothing is fetched.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
usage='usage: bench-counts.sh PARENT "WORKLOAD..." [SEED]'
parent=${1:?$usage}
read -r -a workloads <<<"${2:?$usage}"
((${#workloads[@]})) || { echo "$usage" >&2; exit 2; }
seed=${3:-42}
read -r -a may_move <<<"${MAY_MOVE:-}"

build="$PWD/.bench_build"
counts="$build/counts"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
rm -rf "$counts"
mkdir -p "$counts/parent" "$counts/out"
git archive "$(git rev-parse --verify "$parent^{commit}")" | tar -x -C "$counts/parent"
go build -C "$counts/parent/bench" -o "$counts/bench-parent" .
go build -C bench -o "$counts/bench-change" .

# The counted metrics, in BENCHMARK.json's order: each entry there is
# one field per line, "name" before "unit".
names=$(awk '/"name":/ { name = $2; gsub(/[",]/, "", name) }
	/"unit": "(count|1\/job)"/ { print name }' BENCHMARK.json)

# run WORKLOAD SIDE: one traced run; writes "metric value" rows, the
# digest first, to $counts/WORKLOAD.SIDE.
run() {
	local out
	out=$("$counts/bench-$2" --workload "$1" --seed "$seed" --trace 1 -out "$counts/out")
	{
		awk '$1 == "digest" { print "digest", $2 }' <<<"$out"
		tail -n 1 <<<"$out" | tr '{,' '\n\n' | grep -v '^"metrics":$' |
			sed -n 's/^"\([a-z0-9_.]*\)":$/\1/p; s/^"value":\([0-9.e+-]*\).*/\1/p' | paste -d ' ' - -
	} >"$counts/$1.$2"
}

failed=()
for w in "${workloads[@]}"; do
	for side in parent change; do
		echo "$w $side" >&2
		run "$w" "$side"
	done
	printf '%s  seed %s  one traced run per side, against %s\n' "$w" "$seed" "$parent"
	printf '%-32s %20s %20s\n' metric parent change
	for m in digest $names; do
		may=0
		for x in "${may_move[@]}"; do
			[[ $m != digest && $x == "$m" ]] && may=1
		done
		line=$(awk -v m="$m" -v may="$may" -v pf="$counts/$w.parent" -v cf="$counts/$w.change" '
		BEGIN {
			while ((getline l < pf) > 0) { split(l, f, " "); if (f[1] == m) p = f[2] }
			while ((getline l < cf) > 0) { split(l, f, " "); if (f[1] == m) c = f[2] }
			if (p == "" && c == "") exit
			mark = p == c ? "equal" : may ? "moved (may)" : "moved"
			if (m == "digest") { p = substr(p, 1, 16); c = substr(c, 1, 16) }
			printf "%-32s %20s %20s   %s\n", m, p == "" ? "-" : p, c == "" ? "-" : c, mark
		}')
		[[ -n $line ]] && echo "$line"
		[[ $line == *"   moved" ]] && failed+=("$w:$m")
	done
	echo
done
if ((${#failed[@]})); then
	echo "FAIL: moved outside MAY_MOVE: ${failed[*]}" >&2
	exit 1
fi
