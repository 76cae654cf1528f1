#!/usr/bin/env bash
# Full CI gate: build, test, lint, format. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

# Build artifacts must never be tracked (the tree once carried ~8.9k
# target/ files; this guard keeps the regression out for good).
if git ls-files | grep -q '^target/'; then
    echo "ci.sh: target/ files are tracked in git — run 'git rm -r --cached target'" >&2
    exit 1
fi

# Every crate must forbid unsafe code at the root.
for lib in crates/*/src/lib.rs; do
    grep -q '^#!\[forbid(unsafe_code)\]' "$lib" || {
        echo "ci.sh: $lib is missing #![forbid(unsafe_code)]" >&2
        exit 1
    }
done

cargo build --release
cargo test -q
# The benchmark builds against the library's public API from its own
# workspace: its tests fail here when an API change breaks it.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
# The independent certificate checker's unit + mutation suite must pass
# on its own (proof replay, model audits, corrupted-proof rejection).
cargo test -q -p cpsrisk-asp check
cargo clippy --all-targets -- -D warnings
cargo fmt --check
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

# Smoke-bench: a tiny workload must produce a cpsrisk-bench/8 report the
# validator accepts. The validator also fails the gate when the
# assumption-reuse stream diverges from — or is slower than — the
# fresh-solve stream, when the tight fast path diverges from the
# unfounded-set closure, (v5) when the WFM simplifier changes the model
# set or a static WFM verdict disagrees with the search path, (v7)
# when any sweep scheduler configuration diverges from the sequential
# result or the streaming pass exceeds its in-flight bound, or (v8) when
# parallel grounding is dominated by spawn overhead, the indexed engine
# loses an enumeration-bound workload, or the streaming pass exceeds its
# overhead ceiling over the materialized sweep.
smoke_bench=target/ci_smoke_bench.json
./target/release/cpsrisk bench --n 2 --threads 2 --out "$smoke_bench"
./target/release/cpsrisk bench --validate "$smoke_bench"
grep -q '"schema": "cpsrisk-bench/9"' "$smoke_bench" || {
    echo "ci.sh: smoke bench did not produce a cpsrisk-bench/9 report" >&2
    exit 1
}
rm -f "$smoke_bench"

# Catalog sweep gate (v7): a small catalog-scale run must produce a
# report whose work-stealing, static-chunk, and memory-bounded streaming
# sweeps all agree with the sequential reference, with one in-range
# utilization entry per worker and the streaming peak within its bound.
catalog_bench=target/ci_catalog_bench.json
./target/release/cpsrisk bench --workload catalog --n 36 --threads 2 \
    --steal-batch 1 --max-in-flight 64 --out "$catalog_bench"
./target/release/cpsrisk bench --validate "$catalog_bench"
grep -q '"workload": "catalog"' "$catalog_bench" || {
    echo "ci.sh: catalog bench did not report the catalog workload" >&2
    exit 1
}
rm -f "$catalog_bench"

# CDCL search + certify gate (v6/v9): the UNSAT adversarial workload
# must be refuted through real conflict-driven search, and with --certify
# the proof-logging run must match the plain run verdict-for-verdict,
# stay within its 2.5x overhead ceiling at the default size (the
# validator enforces both), and emit a certificate the solver-independent
# checker accepts — replayed here once inside the bench and once
# stand-alone from the written proof file via `cpsrisk check`.
search_bench=target/ci_search_bench.json
search_proof=target/ci_search_bench.proof
./target/release/cpsrisk bench --workload adversarial --certify \
    --out "$search_bench" --proof-out "$search_proof"
./target/release/cpsrisk bench --validate "$search_bench"
if grep -q '"decisions": 0' "$search_bench"; then
    echo "ci.sh: adversarial bench reported zero decisions" >&2
    exit 1
fi
grep -q '"check_pass": true' "$search_bench" || {
    echo "ci.sh: adversarial bench did not confirm the certificate check" >&2
    exit 1
}
./target/release/cpsrisk check "$search_proof"
rm -f "$search_bench" "$search_proof"

# Static-analysis gate: the example programs must analyze without
# error-severity findings, and on the temporal workload the grounding-size
# prediction must stay within 10x of the actual grounding.
./target/release/cpsrisk analyze examples/listing1.lp examples/water_tank.lp
./target/release/cpsrisk analyze --workload temporal --max-divergence 10

# Grounding + tight-solve + WFM gate: on the temporal workload the
# validator rejects reports where semi-naive grounding is slower than the
# reference grounder, diverges from it, or is non-deterministic across
# threads — (v4) where the program fails to ground tight or the tight fast
# path is slower than the unfounded-set closure — and (v5) where the
# deterministic unrolled dynamics are not statically decided by the
# well-founded model (static_fraction must be positive).
grounding_bench=target/ci_grounding_bench.json
./target/release/cpsrisk bench --workload temporal --threads 2 --out "$grounding_bench"
./target/release/cpsrisk bench --validate "$grounding_bench"
rm -f "$grounding_bench"

# Horizon sweep gate (v8): the incremental minimal-violating-horizon
# sweep must match from-scratch checking verdict-for-verdict at every
# horizon of the tank workload, agree on the minimal violating horizon,
# ground only bounded slice deltas per extension, and not lose to
# from-scratch (amortized speedup >= 1.0; the validator holds long
# ranges to >= 5.0).
horizon_bench=target/ci_horizon_bench.json
./target/release/cpsrisk bench --workload horizon --n 16 --out "$horizon_bench"
./target/release/cpsrisk bench --validate "$horizon_bench"
grep -q '"verdicts_match": true' "$horizon_bench" || {
    echo "ci.sh: horizon bench did not confirm verdict equality" >&2
    exit 1
}
rm -f "$horizon_bench"

# The committed report must stay valid under the same gates.
./target/release/cpsrisk bench --validate BENCH_asp.json
