#!/bin/sh
# Print the pass count on the last line of a `pytest -q` log, the N of
# "N passed", or nothing when that line has none.
# Usage: .github/pytest-passed.sh LOG
tail -n 1 "$1" | sed -n 's/.*\b\([0-9][0-9]*\) passed.*/\1/p'
