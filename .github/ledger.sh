#!/bin/sh
# Coverage ledger: every non-test function outside bench/, examples/,
# cmd/stubgen and generated stubs is reached by some shipped run, or
# .github/unreached.txt says why not.
#
# Builds oamlab, bench, stubgen and each example with -cover, drives every
# shipped mode into one GOCOVERDIR, lists the functions with 0 % coverage
# as "file Func" and diffs that list against the keys of unreached.txt
# (first two fields; the rest of the line is the reason). Exits 1 on an
# unlisted function or on a stale entry.
#
#   sh .github/ledger.sh             check (CI's ledger job)
#   sh .github/ledger.sh -print      print the unreached keys and exit 0
set -eu
export LC_ALL=C

root=$(cd "$(dirname "$0")/.." && pwd)
allow="$root/.github/unreached.txt"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
trap 'exit 1' INT TERM
bin="$work/bin"
export GOCOVERDIR="$work/cov"
mkdir -p "$bin" "$GOCOVERDIR" "$work/run"

cd "$root"
go build -cover -coverpkg=./... -o "$bin/" ./cmd/oamlab ./cmd/stubgen ./bench ./examples/...

# Runs write their side files (traces, SVGs, .bench_out) under $work.
cd "$work/run"
run() { "$@" > "$work/out" 2>&1 || { cat "$work/out" >&2; echo "ledger: run failed: $*" >&2; exit 1; }; }

for flags in "" "-cores 4" "-shards 2" "-shards 2 -optimistic" "-csv"; do
	# shellcheck disable=SC2086
	run "$bin/oamlab" -quick $flags all
done
run "$bin/oamlab" -quick -svgdir "$work/svg" fig1 fig2 fig3 fig4
for app in triangle tsp sor water kv; do
	for sys in am orpc trpc; do
		run "$bin/oamlab" -quick trace "$app" -sys "$sys" -o "$work/trace.json"
		run "$bin/oamlab" -quick metrics "$app" -sys "$sys"
	done
done
run "$bin/oamlab" -quick -cores 4 metrics kv
for w in null_orpc null_trpc kv_steady kv_lossy kv_multi apps_quick; do
	run "$bin/bench" -workload "$w" -seconds 1 -trace 1
done
for ex in "$root"/examples/*/; do
	run "$bin/$(basename "$ex")"
done
for idl in $(cd "$root" && find internal -name '*.rpc' | sort); do
	run "$bin/stubgen" -in "$root/$idl"
done

# "repro/internal/sim/engine.go:42:	Engine.At	0.0%" -> "internal/sim/engine.go Engine.At"
cd "$root"
mod=$(go list -m)
go tool covdata func -i="$GOCOVERDIR" |
	awk -v mod="$mod/" '$NF == "0.0%" { f = $1; sub(/:[0-9]+:$/, "", f); sub("^" mod, "", f); print f, $2 }' |
	grep -v -e '^bench/' -e '^examples/' -e '^cmd/stubgen/' |
	while read -r f fn; do
		grep -q '^// Code generated .* DO NOT EDIT\.$' "$f" || echo "$f $fn"
	done | sort -u > "$work/unreached"

if [ "${1:-}" = "-print" ]; then
	cat "$work/unreached"
	exit 0
fi

awk '!/^#/ && NF { if (NF < 3) { print "ledger: entry without a reason: " $0 > "/dev/stderr"; bad = 1 } print $1, $2 } END { exit bad }' "$allow" > "$work/listed"
sort -o "$work/listed" "$work/listed"
new=$(comm -23 "$work/unreached" "$work/listed")
stale=$(comm -13 "$work/unreached" "$work/listed")
[ -z "$new" ] || printf 'ledger: reached by no run and not in .github/unreached.txt:\n%s\n' "$new" >&2
[ -z "$stale" ] || printf 'ledger: stale .github/unreached.txt entries (now reached, or gone):\n%s\n' "$stale" >&2
[ -z "$new$stale" ]
echo "ledger: $(wc -l < "$work/unreached") unreached functions, all listed"
