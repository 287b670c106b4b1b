#!/usr/bin/env bash
# Build argus and the benchmark from the source tree this script sits in,
# then run one benchmark run. Arguments are passed through:
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to $CARGO_TARGET_DIR (default: target/).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "run.sh: no argus source tree at $root" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-target}"
[[ "$target" = /* ]] || target="$root/$target"
export CARGO_TARGET_DIR="$target"
cargo build --offline --release --quiet --bin argus >&2
cargo build --offline --release --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/argus-benchmark" --argus "$target/release/argus" "$@"
