#!/bin/sh
# rair_fault --trace input handling: a damaged trace file exits 2 with a
# message naming the problem, before any simulation; a good trace replays
# clean under the oracle. Cases: missing (no such file), malformed (a
# non-numeric field), unsorted (records out of cycle order), negative-node,
# wide-app (app id 40000 does not fit an AppId) and good-check (--check
# must print "oracle: ok").
#
#   test_trace_input.sh <rair_fault binary> <scratch dir> <case>
set -eu
fault=$1
dir=$2
rm -rf "$dir"
mkdir -p "$dir"
printf '@2500 stall 27 E\n@2900 unstall 27 E\n' > "$dir/plan.fp"

# rejects <trace text, empty for no file> <expected stderr text>
rejects() {
  if [ -n "$1" ]; then printf "$1" > "$dir/in.trace"; fi
  status=0
  "$fault" --plan "$dir/plan.fp" --trace "$dir/in.trace" --fast \
    > /dev/null 2> "$dir/err.txt" || status=$?
  test "$status" -eq 2 && grep -q "$2" "$dir/err.txt"
}

case $3 in
  missing) rejects '' "cannot open trace file" ;;
  malformed) rejects '0 1 2 0 0 1\n5 1 x 0 0 1\n' "line 2: malformed record" ;;
  unsorted) rejects '9 1 2 0 0 1\n5 3 4 0 0 1\n' "line 2: cycle 5 precedes" ;;
  negative-node) rejects '0 -1 2 0 0 1\n' "line 1: node id out of range" ;;
  wide-app) rejects '0 1 2 40000 0 1\n' "line 1: app id 40000 out of range" ;;
  good-check)
    # A packet every third cycle from both apps, never self-addressed
    # (6c + 1 is odd), across the end of the fast warm-up.
    awk 'BEGIN { for (c = 0; c < 3000; c += 3)
                   printf "%d %d %d %d 0 %d\n", c, c % 64, (c * 7 + 1) % 64,
                          int(c / 3) % 2, 1 + c % 5 }' > "$dir/in.trace"
    "$fault" --plan "$dir/plan.fp" --trace "$dir/in.trace" --fast --check \
      2> /dev/null | grep -q "^oracle: ok"
    ;;
  *) echo "unknown case '$3'" >&2; exit 2 ;;
esac
