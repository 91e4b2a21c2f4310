#!/usr/bin/env bash
# Diff the installed `tcbundles` console script against tests/golden/: its
# `criteria` output and its four `ring --which` dumps of every spec in specs/
# and tests/specs/, all in the --machine format.  Run it from the repository
# root after installing the package; it stops with a nonzero status at the
# first difference, which diff prints.
set -euo pipefail
for spec in specs/*.spec tests/specs/*.spec; do
  name=$(basename "$spec" .spec)
  tcbundles criteria "$spec" --machine | diff - "tests/golden/criteria_$name.txt"
  for which in proj qtilde grassmann feder; do
    tcbundles ring "$spec" --which "$which" --machine |
      diff - "tests/golden/ring_${which}_$name.txt"
  done
done
