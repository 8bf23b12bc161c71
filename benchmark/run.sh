#!/usr/bin/env bash
# Build `sad` and the harness from source (offline, this package's own
# lockfile and target directory), then hand every argument to the harness.
# Cargo reports on stderr; the harness owns stdout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    --target-dir "$target" -p sad-cli -p sad-benchmark >&2
exec "$target/release/sad-benchmark" "$@"
