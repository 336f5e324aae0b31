#!/usr/bin/env bash
# The perf gate: the repository benchmark (bench/run.sh) run as alternated
# base/head pairs and judged per pair against the bounds in BENCHMARK.json.
#
#   perf-gate.sh pairs BASE HEAD > perf-pairs.jsonl   # 3 pairs of every workload, one line per run
#   perf-gate.sh compare perf-pairs.jsonl             # exits 1 on a failed run or a metric beyond its bound
#   perf-gate.sh selftest                             # planted regressions must fail compare
#
# BASE and HEAD are checkouts. compare and selftest read the bounds from
# BENCHMARK.json in the working directory.
#
# For each (metric, workload) compare takes the median over the pairs of
# head/base: the two sides of a pair run back to back on one seed, so the
# box's drift, which lasts seconds to minutes, mostly cancels inside a
# pair; a ratio of per-side medians does not cancel it.
set -euo pipefail

pairs=3
seconds=10
# The gate's own threshold: corpus_detailed's simulator speed may lose at
# most 10 %, tighter than its benchmark bound.
detailed_bound=0.10
# setup_s is reported, not gated, as bench/run.sh --repeat does not gate
# its spread either: a ~0.15 s set-up on a drifting box moved by up to
# 53 % within one pair of unchanged code, and the median of three pairs
# by 28 %.

run_pairs() {
	local base=$1 head=$2 seed side dir out status order workload
	# A workload the base does not have yet has nothing to compare with.
	local workloads
	workloads=$(jq -rn --slurpfile b "$base/BENCHMARK.json" --slurpfile h "$head/BENCHMARK.json" \
		'$h[0].workloads[].name | select(IN($b[0].workloads[].name))')
	for seed in $(seq 1 "$pairs"); do
		# Alternate which side goes first, so neither always runs on a
		# box the other has just warmed or loaded.
		order="base head"
		if ((seed % 2 == 0)); then order="head base"; fi
		for workload in $workloads; do
			for side in $order; do
				dir=$base
				if [ "$side" = head ]; then dir=$head; fi
				set +e
				out=$(cd "$dir" && bash bench/run.sh --workload "$workload" --seed "$seed" \
					--seconds "$seconds" --trace 0 | tee /dev/stderr | tail -n 1)
				status=$?
				set -e
				jq -cn --arg w "$workload" --arg side "$side" --argjson seed "$seed" \
					--argjson exit "$status" --arg out "$out" \
					'{workload: $w, side: $side, seed: $seed, exit: $exit, result: ($out | fromjson? // null)}'
			done
		done
	done
}

compare() {
	local report
	report=$(jq -rs --slurpfile spec BENCHMARK.json --argjson detailed "$detailed_bound" '
		def median: sort | if length % 2 == 1 then .[length / 2 | floor]
			else (.[length / 2 - 1] + .[length / 2]) / 2 end;
		def pct: . * 1000 | round / 10 | tostring + "%";
		def ok: .exit == 0 and .result.correct == true;
		if length == 0 then "FAIL no result lines" else empty end,
		(.[] | select(ok | not)
			| "FAIL run \(.workload) seed \(.seed) \(.side): exit \(.exit), correct \(.result.correct)"),
		(group_by(.workload)[] as $runs
			| $runs[0].workload as $w
			| [$runs | group_by(.seed)[] | select(length == 2 and all(.[]; ok))
				| {base: (.[] | select(.side == "base") | .result.metrics),
				   head: (.[] | select(.side == "head") | .result.metrics)}] as $pairs
			| if $pairs == [] then "FAIL \($w): no pair with both runs correct" else
				$spec[0].end_to_end[] as $m
				| ($pairs | map(.head[$m.name].value / .base[$m.name].value) | median) as $r
				| (if $m.better == "higher" then 1 - $r else $r - 1 end) as $worse
				| (if $w == "corpus_detailed" and $m.name == "sim_mcycles_per_s"
					then [$m.bound, $detailed] | min else $m.bound end) as $bound
				| (if $m.name == "setup_s" then "info" elif $worse > $bound then "FAIL" else "ok  " end) as $verdict
				| "\($verdict) \($w) \($m.name): median head/base \($r * 1000 | round / 1000) over \($pairs | length) pairs, \(if $worse > 0 then "worse" else "better" end) by \($worse | fabs | pct), bound \($bound | pct)"
			end)
	' "$1") || { echo "compare: cannot read $1" >&2; return 1; }
	echo "$report"
	! grep -q '^FAIL' <<<"$report"
}

# selftest proves the gate can fail: an A/A set must pass, and the same
# set with a planted regression must fail on the planted metric.
selftest() {
	dir=$(mktemp -d)
	trap 'rm -rf "$dir"' EXIT
	jq -cn --slurpfile spec BENCHMARK.json '
		($spec[0].end_to_end | map({key: .name, value: {value: 1, unit: .unit}}) | from_entries) as $m
		| range(1; 4) as $seed | ("base", "head") as $side
		| {workload: "corpus_detailed", side: $side, seed: $seed, exit: 0,
		   result: {correct: true, attempted: 1, failed: 0, metrics: $m}}' >"$dir/aa"
	compare "$dir/aa" >/dev/null || { echo "self-test: an A/A set failed the gate" >&2; return 1; }
	local name edit want out
	while IFS='|' read -r name edit want; do
		jq -c "if .side == \"head\" then $edit else . end" "$dir/aa" >"$dir/$name"
		if out=$(compare "$dir/$name"); then
			echo "self-test: $name passed the gate" >&2
			return 1
		fi
		grep -q "^FAIL.*$want" <<<"$out" || { echo "self-test: $name failed for another reason:" >&2; echo "$out" >&2; return 1; }
		echo "self-test: $name caught: $(grep -m1 '^FAIL' <<<"$out")"
	done <<'EOF'
slower|.result.metrics.req_per_s.value *= 0.7|corpus_detailed req_per_s
alloc|.result.metrics.alloc_kb_per_op.value *= 1.06|corpus_detailed alloc_kb_per_op
incorrect|if .seed == 2 then .result.correct = false else . end|correct false
EOF
}

case "${1:-}" in
pairs) run_pairs "$2" "$3" ;;
compare) compare "$2" ;;
selftest) selftest ;;
*)
	echo "usage: $0 pairs BASE HEAD | compare FILE | selftest" >&2
	exit 2
	;;
esac
