#!/usr/bin/env bash
# Paired runs of one bench/ workload on a parent revision and on this
# checkout: N pairs, alternating which side goes first, then per side
# the median and quartiles of each end-to-end metric, the pair-wise
# wins and the median of the pair-wise ratios.  Exits 1 if any two runs
# disagree on the digest.  The rule this implements is in
# bench/README.md ("a PR that claims a gain ...").
#
#   scripts/bench-pairs.sh PARENT WORKLOAD [N=10] [SEED=42] [SECONDS=10]
#
# The parent is exported with `git archive` into .bench_build/pairs/ and
# both sides are built with bench/run.sh's environment, so nothing is
# written outside .bench_build/ and nothing is fetched.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
parent=${1:?usage: bench-pairs.sh PARENT WORKLOAD [N] [SEED] [SECONDS]}
workload=${2:?usage: bench-pairs.sh PARENT WORKLOAD [N] [SEED] [SECONDS]}
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

# run SIDE PAIR: one contract run; appends "pair side digest metric value" rows.
run() {
	local out
	out=$("$pairs/bench-$1" --workload "$workload" --seed "$seed" --seconds "$seconds" \
		--trace 0 -out "$pairs/out")
	local digest
	digest=$(awk '$1 == "digest" { print $2 }' <<<"$out")
	tail -n 1 <<<"$out" | tr '{,' '\n\n' | grep -v '^"metrics":$' |
		sed -n 's/^"\([a-z_]*\)":$/\1/p; s/^"value":\([0-9.e+-]*\).*/\1/p' |
		paste - - | awk -v p="$2" -v s="$1" -v d="$digest" '{ print p, s, d, $1, $2 }' >>"$pairs/rows"
}

: >"$pairs/rows"
for ((i = 1; i <= n; i++)); do
	if ((i % 2)); then order="parent change"; else order="change parent"; fi
	for side in $order; do
		echo "pair $i/$n: $side" >&2
		run "$side" "$i"
	done
done

awk -v w="$workload" -v parent="$parent" -v seed="$seed" '
function quant(a, n, q,    pos, lo, f) {
	pos = (n - 1) * q; lo = int(pos); f = pos - lo
	return lo + 1 >= n ? a[n] : a[lo + 1] * (1 - f) + a[lo + 2] * f
}
function sorted(src, prefix, n, dst,    i, j, t) {
	for (i = 1; i <= n; i++) dst[i] = src[prefix, i]
	for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
}
{
	digests[$3] = 1; v[$4, $2, $1] = $5
	if (!($4 in seen)) { seen[$4] = 1; order[++nm] = $4 }
	if ($1 > n) n = $1
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
	printf "digest %s on every run\n", digest
}' "$pairs/rows"
