#!/bin/sh
# fig17's PARSEC request/reply cells take every campaign option. Runs
# fig17 --fast with one option and checks what that option must do:
#
#   warm-cache                  with the flood knee already calibrated,
#                               one run writes the 8 cells' warm entries
#                               and a second run (new --out) restores
#                               every one of them, storing none again;
#                               both runs' records match a plain run
#   checkpoint-dir              records match a plain run
#   faults                      every record carries a fault block
#   metrics-series              every record carries a metrics block and
#                               the per-cell series sinks are written
#   metrics-out                 under --metrics summary, the per-cell
#                               summary and counters sinks are written
#   metrics-out-missing         the --metrics-out prefix's directory does
#                               not exist: it is created and every cell's
#                               summary sink lands in it
#   metrics-out-uncreatable     the directory cannot be made (its parent
#                               is missing too): exit 2 before any
#                               calibration, so no results file is started
#   metrics-out-no-level        --metrics-out without --metrics
#                               summary|series writes no sink: exit 2
#                               before any calibration
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
    # Calibrate once and hand both cache runs the flood knee, so the cache
    # holds the cells' entries only.
    run plain.json
    grep '"type":"value"' "$dir/plain.json" > "$dir/out.json"
    cp "$dir/out.json" "$dir/again.json"
    run out.json --warm-cache "$dir/warm"
    test "$(ls "$dir/warm" | wc -l)" -eq 8
    touch "$dir/stored"
    run again.json --warm-cache "$dir/warm"
    test -z "$(find "$dir/warm" -newer "$dir/stored")"
    records plain.json > "$dir/plain.txt"
    for out in out again; do
      records $out.json > "$dir/$out.txt"
      cmp "$dir/plain.txt" "$dir/$out.txt"
    done
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
  metrics-out-missing)
    run out.json --metrics summary --metrics-out "$dir/new/x"
    test "$(ls "$dir"/new/x*summary.json | wc -l)" -eq 8
    ;;
  metrics-out-uncreatable)
    status=0
    run out.json --metrics summary --metrics-out "$dir/missing/deeper/x" ||
      status=$?
    test "$status" -eq 2
    test ! -e "$dir/out.json"
    ;;
  metrics-out-no-level)
    status=0
    run out.json --metrics-out "$dir/metrics/" || status=$?
    test "$status" -eq 2
    test ! -e "$dir/out.json"
    ;;
  *)
    echo "unknown option '$option'" >&2
    exit 2
    ;;
esac
