#!/usr/bin/env bash
# Build the daemon under test (`ucfg`, release) and the load generator,
# then run one benchmark workload. Run from the repository root:
#
#   bash loadbench/run.sh --workload parse_hot --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates/cli" ]; then
    echo "loadbench: no ucfg workspace next to $here; run from a full checkout" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p ucfg-cli --bin ucfg >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/ucfg-loadbench" --daemon "$target/release/ucfg" \
    --scratch "$target/loadbench" "$@"
