#!/usr/bin/env bash
# The benchmark's single command.  Builds the daemon (`mdesc`) and the
# benchmark offline into one target directory, then runs one workload:
#
#   bash benchmark/run.sh --workload build|batch|serve_small|serve_reload \
#       --seed N --seconds S --trace 0|1
#
# Run from the repository root.  The target directory is
# $CARGO_TARGET_DIR when set, else ./target; traces land in
# <target>/benchmark/.  Exits non-zero on a failed output check or an
# invalid run, and when the repository's crates are missing.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p mdes-tools --target-dir "$target" >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    --target-dir "$target" >&2
exec "$target/release/mdes-benchmark" "$@"
