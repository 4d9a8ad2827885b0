#!/bin/sh
# fig17's PARSEC request/reply cells take every campaign option. Runs
# fig17 --fast with one option and checks what that option must do:
#
#   warm-cache, checkpoint-dir  the cells cannot snapshot and skip the
#                               option: records match a plain run
#   faults                      every record carries a fault block
#   metrics-series              every record carries a metrics block and
#                               the per-cell series sinks are written
#   metrics-out                 under --metrics summary, the per-cell
#                               summary and counters sinks are written
#
#   test_fig17_options.sh <rair_campaign binary> <scratch dir> <option>
set -eu
campaign=$1
dir=$2
option=$3
rm -rf "$dir"
mkdir -p "$dir/metrics"

run() {
  out=$1
  shift
  "$campaign" --name fig17 --fast --jobs 2 --no-table --out "$dir/$out" "$@"
}
# Records without the volatile wall time, in a stable order.
records() {
  sed 's/,"wall_ms":[^,}]*//' "$dir/$1" | sort
}
same_as_plain() {
  run plain.json
  records plain.json > "$dir/plain.txt"
  records out.json > "$dir/out.txt"
  cmp "$dir/plain.txt" "$dir/out.txt"
}

case $option in
  warm-cache)
    run out.json --warm-cache "$dir/warm"
    same_as_plain
    ;;
  checkpoint-dir)
    run out.json --checkpoint-dir "$dir/ckpt"
    same_as_plain
    ;;
  faults)
    printf '@3000 creditloss 45 W 1 1\n' > "$dir/plan.fp"
    run out.json --faults "$dir/plan.fp"
    test "$(grep -c '"fault":{' "$dir/out.json")" -eq 8
    ;;
  metrics-series)
    run out.json --metrics series --metrics-out "$dir/metrics/"
    test "$(grep -c '"metrics":{' "$dir/out.json")" -eq 8
    test -s "$dir/metrics/fig17_RA_RAIR_attack.series.jsonl"
    ;;
  metrics-out)
    run out.json --metrics summary --metrics-out "$dir/metrics/"
    test "$(grep -c '"metrics":{' "$dir/out.json")" -eq 8
    test -s "$dir/metrics/fig17_RA_RAIR_attack.summary.json"
    test -s "$dir/metrics/fig17_RA_RAIR_attack.counters.csv"
    ;;
  *)
    echo "unknown option '$option'" >&2
    exit 2
    ;;
esac
