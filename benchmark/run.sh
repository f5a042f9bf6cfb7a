#!/usr/bin/env bash
# Builds bloom87_bench into benchmark/build and runs it.
#
#   bash benchmark/run.sh [--workload W|all] [--seed S] [--seconds N]
#                         [--trace 0|1] [--trace-dir DIR] [--smoke]
#                         [--json PATH]
#
# Build output goes to stderr, so the last line on stdout is the result
# JSON object. A failed build exits non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$here/build"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
cmake --build "$build" -j 4 >&2

# The commit, when the checkout is a git work tree; the check on .git keeps
# git from searching the directories above the checkout.
commit=unknown
if [ -e "$root/.git" ]; then
  commit="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
fi

exec "$build/bloom87_bench" --commit "$commit" --trace-dir "$build" "$@"
