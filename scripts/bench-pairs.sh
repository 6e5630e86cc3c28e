#!/usr/bin/env bash
# Paired runs of bench/ workloads on a parent revision and on this
# checkout: N pairs per workload, alternating which side goes first,
# then one table per workload with, per side, the median and quartiles
# of each end-to-end metric, the pair-wise wins and the median of the
# pair-wise ratios.  Exits 1 if any two runs of a workload disagree on
# the digest.  The rule this implements is in bench/README.md ("a PR
# that claims a gain ...").
#
#   scripts/bench-pairs.sh PARENT "WORKLOAD..." [N=10] [SEED=42] [SECONDS=10]
#
# WORKLOAD is one name or several, space-separated in one argument;
# pair i runs every workload before pair i+1 starts, so slow drift on
# the host touches every table alike.  Both sides are built once: the
# parent is exported with `git archive` into .bench_build/pairs/ and
# both are built with bench/run.sh's environment, so nothing is
# written outside .bench_build/ and nothing is fetched.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
usage='usage: bench-pairs.sh PARENT "WORKLOAD..." [N] [SEED] [SECONDS]'
parent=${1:?$usage}
read -r -a workloads <<<"${2:?$usage}"
((${#workloads[@]})) || { echo "$usage" >&2; exit 2; }
n=${3:-10} seed=${4:-42} seconds=${5:-10}

build="$PWD/.bench_build"
pairs="$build/pairs"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
rm -rf "$pairs"
mkdir -p "$pairs/parent" "$pairs/out"
git archive "$(git rev-parse --verify "$parent^{commit}")" | tar -x -C "$pairs/parent"
go build -C "$pairs/parent/bench" -o "$pairs/bench-parent" .
go build -C bench -o "$pairs/bench-change" .

# run WORKLOAD SIDE PAIR: one contract run; appends
# "workload pair side digest metric value" rows.
run() {
	local out
	out=$("$pairs/bench-$2" --workload "$1" --seed "$seed" --seconds "$seconds" \
		--trace 0 -out "$pairs/out")
	local digest
	digest=$(awk '$1 == "digest" { print $2 }' <<<"$out")
	tail -n 1 <<<"$out" | tr '{,' '\n\n' | grep -v '^"metrics":$' |
		sed -n 's/^"\([a-z_]*\)":$/\1/p; s/^"value":\([0-9.e+-]*\).*/\1/p' |
		paste - - | awk -v w="$1" -v p="$3" -v s="$2" -v d="$digest" \
		'{ print w, p, s, d, $1, $2 }' >>"$pairs/rows"
}

: >"$pairs/rows"
for ((i = 1; i <= n; i++)); do
	if ((i % 2)); then order="parent change"; else order="change parent"; fi
	for w in "${workloads[@]}"; do
		for side in $order; do
			echo "pair $i/$n: $w $side" >&2
			run "$w" "$side" "$i"
		done
	done
done

status=0
for w in "${workloads[@]}"; do
	awk -v w="$w" -v parent="$parent" -v seed="$seed" '
function quant(a, n, q,    pos, lo, f) {
	pos = (n - 1) * q; lo = int(pos); f = pos - lo
	return lo + 1 >= n ? a[n] : a[lo + 1] * (1 - f) + a[lo + 2] * f
}
function sorted(src, prefix, n, dst,    i, j, t) {
	for (i = 1; i <= n; i++) dst[i] = src[prefix, i]
	for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
}
$1 != w { next }
{
	digests[$4] = 1; v[$5, $3, $2] = $6
	if (!($5 in seen)) { seen[$5] = 1; order[++nm] = $5 }
	if ($2 > n) n = $2
}
END {
	nd = 0; for (d in digests) { nd++; digest = d }
	printf "%s  seed %s  %d pairs against %s\n", w, seed, n, parent
	printf "%-18s %-7s %12s %12s %12s   %s\n", "metric", "side", "q1", "median", "q3", "pairs won / median ratio"
	for (k = 1; k <= nm; k++) {
		m = order[k]; higher = (m == "throughput_per_s"); wins = 0
		for (i = 1; i <= n; i++) {
			p = v[m, "parent", i]; c = v[m, "change", i]
			vp["p", i] = p; vc["c", i] = c; r["r", i] = c / p
			if (higher ? c > p : c < p) wins++
		}
		sorted(vp, "p", n, sp); sorted(vc, "c", n, sc); sorted(r, "r", n, sr)
		printf "%-18s %-7s %12.6g %12.6g %12.6g\n", m, "parent", quant(sp, n, .25), quant(sp, n, .5), quant(sp, n, .75)
		printf "%-18s %-7s %12.6g %12.6g %12.6g   %d/%d  x%.3f\n", m, "change", quant(sc, n, .25), quant(sc, n, .5), quant(sc, n, .75), wins, n, quant(sr, n, .5)
	}
	if (nd != 1) { printf "FAIL: %d different digests among the runs\n", nd; exit 1 }
	printf "digest %s on every run\n\n", digest
}' "$pairs/rows" || status=1
done
exit $status
