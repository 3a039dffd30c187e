#!/usr/bin/env bash
# Local CI gate — the same checks .github/workflows/ci.yml runs.
# All dependencies are vendored (vendor/*), so this works fully offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo bench -q --workspace -- --test (smoke: one unmeasured run per bench)"
cargo bench -q --workspace -- --test

echo "==> obs_report --smoke (instrumented run: bit-identity + trace schema + renders)"
cargo run -q --release -p rmac-experiments --bin obs_report -- --smoke

echo "==> check-fuzz (conformance fuzz smoke: 1000 seeded scenarios under C1-C5)"
cargo run -q --release -p rmac-experiments --bin fuzz_scenarios -- --smoke

echo "==> soak_live --smoke (live loopback soak: 100% delivery under 20% GE loss)"
cargo run -q --release -p rmac-experiments --bin soak_live -- --smoke

echo "==> shard stage (sharded-engine equivalence proptests + balance/islands tests + bench_shard --smoke)"
cargo test -q --release --test shard_equivalence --test shard_tiebreak --test shard_balance
cargo run -q --release -p rmac-experiments --bin bench_shard -- --smoke

echo "==> queue stage (calendar/heap differential proptests + bench_phy --smoke A/B)"
cargo test -q --release --test queue_equivalence
cargo run -q --release -p rmac-experiments --bin bench_phy -- --smoke

echo "==> campaign stage (quick sweep + resume law + regression gate + dashboard)"
cargo test -q --release --test campaign_resume
cargo run -q --release -p rmac-experiments --bin campaign -- run --quick
cargo run -q --release -p rmac-experiments --bin campaign -- gate
cargo run -q --release -p rmac-experiments --bin campaign_report -- results/campaigns/paper-figures-quick

echo "CI green."
