#!/bin/sh
# A fault plan the network cannot run exits 2 with a message naming the
# offending event: rair_fault before any simulation, rair_campaign
# --faults (on fig09) after calibration but before any cell runs.
#
#   test_plan_input.sh <rair_fault> <rair_campaign> <scratch dir> <case>
set -eu
dir=$3
rm -rf "$dir"
mkdir -p "$dir"
case $4 in
  node-outside) plan='@5000 down 999 E'
    want="event '@5000 down 999 E': node 999 is outside the 8x8 mesh" ;;
  missing-link) plan='@5000 down 7 E'
    want="event '@5000 down 7 E': the link does not exist" ;;
  vc-outside) plan='@5000 creditloss 3 E 40 1'
    want="event '@5000 creditloss 3 E 40 1': VC 40 is outside" ;;
  nested-reset) plan='@5000 reset 3\n@6000 reset 3'
    want="event '@6000 reset 3': the node is already in reset" ;;
  campaign-node-outside) plan='@5000 down 999 E'
    want="cell RO_RR/p0: event '@5000 down 999 E': node 999 is outside" ;;
  campaign-corrupt-on-ideal) plan='@5000 corrupt 3 E 4'
    want="cell RO_RR/p0: event '@5000 corrupt 3 E 4': corrupt events" ;;
  *) echo "unknown case '$4'" >&2; exit 2 ;;
esac
printf "$plan\n" > "$dir/plan.fp"
status=0
case $4 in
  campaign-*)
    "$2" --name fig09 --fast --jobs 2 --no-table --faults "$dir/plan.fp" \
      --out "$dir/out.json" > /dev/null 2> "$dir/err.txt" || status=$?
    test "$(grep -c '"type":"cell"' "$dir/out.json" || true)" -eq 0 ;;
  *) "$1" --plan "$dir/plan.fp" --fast > /dev/null 2> "$dir/err.txt" ||
       status=$? ;;
esac
test "$status" -eq 2
grep -q "$want" "$dir/err.txt"
