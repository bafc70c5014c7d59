#!/usr/bin/env bash
# Non-test Rust lines per crate (ROADMAP: "net line count per PR is a
# reported number"). Counts every line of every `.rs` file outside
# `tests/` and `target/` directories, stopping each file at its trailing
# `#[cfg(test)] mod …`. Needs only bash, find and awk.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # non-test lines of every .rs file under directory $1
  find "$1" -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' -print0 |
    xargs -0 -r -n1 awk '
      /^#\[cfg\(test\)\]/ { held++; next }  # may open the test tail
      held && /^(pub )?mod / { exit }       # it does: stop counting
      { n += held + 1; held = 0 }
      END { print n + held }' |
    awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in crates/* examples benchmark; do
  n=$(count "$dir")
  printf '%7d  %s\n' "$n" "$dir"
  total=$((total + n))
done
printf '%7d  total non-test .rs lines\n' "$total"
