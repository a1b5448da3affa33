#!/usr/bin/env bash
# Soak: run the concurrency, crash and resync tests many times each beside
# two busy loops, so rare interleavings get the CPU contention that exposes
# them, and report runs and failures per test. The busy loops are two shell
# processes this script starts and kills; it changes no machine setting.
#
# Usage: scripts/soak.sh [runs] [race-runs]
#   runs       runs of each suite below (default 200)
#   race-runs  runs of TestLonePutRoundTrips under -race (default 1000)
# Environment: GO (go tool). Each test process runs up to 25 runs under a
# 600 s timeout. A batch that fails keeps its output in an nvsoak-fail-*
# file under $TMPDIR, whose path is printed.
set -u
runs=${1:-200}
race_runs=${2:-1000}
batch=25
timeout=600s
go=${GO:-go}
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=${TMPDIR:-/tmp}
dir=$(mktemp -d "$tmp/nvsoak.XXXXXX")
busy=()
cleanup() {
	if [ ${#busy[@]} -gt 0 ]; then
		kill "${busy[@]}" 2>/dev/null
		wait "${busy[@]}" 2>/dev/null
	fi
	rm -rf "$dir"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

# name | package | -test.run pattern | build flags | runs
suites=(
	"list|internal/list|^TestConcurrentStress\$||$runs"
	"hashtable|internal/hashtable|^TestConcurrentStress\$||$runs"
	"skiplist|internal/skiplist|^TestConcurrentStress\$||$runs"
	"ellenbst|internal/ellenbst|^TestConcurrentStress\$||$runs"
	"nmbst|internal/nmbst|^TestConcurrentStress\$||$runs"
	"crashtest|internal/crashtest|.||$runs"
	"store|internal/store|^TestTorture||$runs"
	"server|internal/server|.||$runs"
	"repl|internal/repl|^TestConcurrentFullResync\$||$runs"
	"server-race|internal/server|^TestLonePutRoundTrips\$|-race|$race_runs"
)

for s in "${suites[@]}"; do
	IFS='|' read -r name pkg _ flags _ <<<"$s"
	echo "build $name"
	# shellcheck disable=SC2086 # flags is empty or one word
	(cd "$root" && "$go" test -c $flags -o "$dir/$name.test" "./$pkg") || exit 1
done

for _ in 1 2; do
	(while :; do :; done) &
	busy+=($!)
done

failed=0
report="$dir/report"
: >"$report"
for s in "${suites[@]}"; do
	IFS='|' read -r name pkg pattern _ n <<<"$s"
	done_runs=0
	while [ "$done_runs" -lt "$n" ]; do
		b=$((n - done_runs < batch ? n - done_runs : batch))
		out="$dir/out"
		(cd "$root/$pkg" && "$dir/$name.test" -test.run "$pattern" -test.count="$b" \
			-test.v -test.timeout="$timeout") >"$out" 2>&1
		rc=$?
		grep -E '^--- (PASS|FAIL): ' "$out" | awk -v s="$name" '{print s, $3, $2}' >>"$report"
		if [ "$rc" -ne 0 ]; then
			failed=1
			keep=$(mktemp "$tmp/nvsoak-fail-$name.XXXXXX")
			cp "$out" "$keep"
			if ! grep -qE '^--- FAIL: ' "$out"; then
				echo "$name ABORTED FAIL:" >>"$report" # a panic or the timeout ended the batch
			fi
			echo "$name: batch failed (exit $rc), output kept in $keep"
			grep -E '^\s*--- FAIL|_test\.go:[0-9]+:|^panic|test timed out' "$out" | head -20
		fi
		done_runs=$((done_runs + b))
	done
	echo "$name: $done_runs runs done"
done

echo
echo "suite       test                                   runs  failures"
awk '{k = $1 " " $2; runs[k]++; if ($3 == "FAIL:") fails[k]++}
	END {for (k in runs) {split(k, a, " "); printf "%-11s %-38s %5d %9d\n", a[1], a[2], runs[k], fails[k]}}' \
	"$report" | sort
exit "$failed"
