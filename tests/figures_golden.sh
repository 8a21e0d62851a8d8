#!/bin/sh
# Golden digests of bench_figures' fig2 and fig6a rows, as the per-figure
# mains bench_fig2 and bench_fig6a printed them. Each must appear both
# in-process and sharded across worker subprocesses.
# Usage: figures_golden.sh <path to bench_figures>
bin=$1
status=0
for mode in "--threads 2" "--workers 2"; do
  # $mode is a flag and its value, split on purpose.
  if ! out=$("$bin" --figure fig2 --figure fig6a $mode); then
    echo "FAIL: bench_figures $mode exited nonzero"
    status=1
    continue
  fi
  for digest in \
      "fig2: 09beea1182a02bfe" \
      "fig6a/80%_fat_switches: d9c297d92a43f146" \
      "fig6a/50%_fat_switches: c675146265e62188" \
      "fig6a/40%_fat_switches: 2ff30421b800a971"; do
    if ! printf '%s\n' "$out" | grep -qF "digest $digest "; then
      echo "FAIL ($mode): no line 'digest $digest'"
      status=1
    fi
  done
done
[ "$status" -eq 0 ] && echo "all four golden digests in both modes"
exit $status
