#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the server and the benchmark
# from source (release profile, honouring CARGO_TARGET_DIR), then hand every
# argument to the benchmark binary. Fails if the workspace is not around it.
set -euo pipefail
cd "$(dirname "$0")/../.."
cargo build --release --offline --quiet -p elephant-server -p benchmark 1>&2
exec "${CARGO_TARGET_DIR:-target}/release/benchmark" "$@"
