#!/bin/sh
# Smoke test of the benchmark: unit tests, then every workload for two
# seconds, end to end and traced. Exits non-zero if a build fails, a test
# fails, or any run reports an incorrect result.
#
# Not wired into .github/ yet; run it from the repository root or from
# anywhere:   sh benchmark/ci.sh
set -eu
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
cargo test --offline --workspace --manifest-path "$manifest"
cargo run --release --offline --quiet --manifest-path "$manifest" -- run --all --seconds 2
cargo run --release --offline --quiet --manifest-path "$manifest" -- run --all --seconds 2 --trace 1
