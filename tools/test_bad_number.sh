#!/bin/sh
# A numeric flag whose value is not wholly a number in range makes the tool
# exit 2 and name the flag on stderr, before it reads a file or simulates.
#
#   test_bad_number.sh <binary> <flag named in the error> <arguments...>
set -eu
bin=$1
flag=$2
shift 2
status=0
err=$("$bin" "$@" 2>&1 > /dev/null) || status=$?
test "$status" -eq 2
case $err in
  *"$flag: expected"*) ;;
  *) echo "stderr does not name $flag: $err" >&2; exit 1 ;;
esac
