#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merge. The build
# environment is offline — all dependencies are vendored path crates —
# so every cargo invocation pins --offline.
set -euo pipefail
cd "$(dirname "$0")/.."

# `stage NAME` closes the open stage with its wall-clock and opens NAME
# under a `==>` banner; a bare `stage` closes the last one.
STAGE=""
STAGE_T0=0
stage() {
  if [ -n "$STAGE" ]; then
    local ns=$(( $(date +%s%N) - STAGE_T0 ))
    printf '    %s wall-clock: %d.%03ds\n' "$STAGE" \
      $(( ns / 1000000000 )) $(( (ns / 1000000) % 1000 ))
  fi
  STAGE="${1:-}"
  STAGE_T0=$(date +%s%N)
  if [ -n "$STAGE" ]; then
    echo "==> $STAGE"
  fi
}

stage "cargo build --release"
cargo build --release --offline

# The vendored rayon honours RAYON_NUM_THREADS (oversubscription allowed),
# so the suite runs twice: once sequential, once with the concurrent code
# paths (Hogwild SGNS, parallel bootstrap/centroid) actually exercised.
# The sequential run is also the crash-recovery gate
# (tests/crash_recovery.rs): 20 seeded kill-points across both embedders;
# every resume must be byte-identical to the uninterrupted run, and
# corrupted checkpoints must quarantine with a typed reason, never load.
# It needs one rayon thread — the identity claim is about the sequential
# path. Both runs are also the work gate (tests/artifact_pins.rs): the
# pinned trained bytes, sentence and SGNS-pair counts, and a digest of
# held-out classify_corpus verdicts, which splits over the rayon threads.
stage "cargo test -q (RAYON_NUM_THREADS=1)"
RAYON_NUM_THREADS=1 cargo test -q --offline

# The concurrent run is also the chaos gate: the seeded fault-injection
# chaos suite (tests/chaos.rs) at four rayon threads.
stage "cargo test -q (RAYON_NUM_THREADS=4)"
RAYON_NUM_THREADS=4 cargo test -q --offline

# Resilience gate: the unit suites of the crates that implement the
# panic-free data path — quarantine ingestion, degraded-mode
# classification, and the injector itself.
stage "cargo test -q (resilience: data-path crates)"
cargo test -q --offline -p tabmeta-resilience -p tabmeta-tabular -p tabmeta-core -p tabmeta-text

# Crate-test gate: the root runs above build only the root package's test
# binaries, and the resilience stage covers resilience, tabular, core and
# text. This stage runs the unit and integration tests of every other
# workspace member: the server (shedding, poisoned requests, the permit
# wake path), the lint (lock-order sync, fixture snapshot, workspace
# self-check, LINTS.md sync), the linalg kernel proptests, embed, corpora,
# baselines, the vendored crates that carry tests, and obs with the
# counting allocator compiled in (quantiles, timeline, the METRICS.md
# sync). tabmeta-eval's experiments run in release: in debug they take
# many minutes.
stage "cargo test -q (remaining workspace crates)"
cargo test -q --offline -p tabmeta-serve -p tabmeta-lint -p tabmeta-linalg -p tabmeta-embed \
  -p tabmeta-corpora -p tabmeta-baselines -p rayon -p rand -p proptest -p criterion
cargo test -q --offline -p tabmeta-obs --features alloc-track
cargo test -q --offline --release -p tabmeta-eval

# Serve chaos gate: a 30-second seeded mixed-traffic soak against the
# classification server — ≥15% wire-malformed frames, slowloris peers, and
# hot model reloads including one corrupted-artifact swap — run both
# sequential and with the concurrent classify paths enabled. Asserts zero
# panics, zero dropped in-flight requests, typed well-formed responses on
# every clean connection, bounded queue depth, and reload-spanning verdict
# bit-identity against offline classification.
stage "serve chaos (RAYON_NUM_THREADS=1)"
TABMETA_SERVE_SOAK_SECS=30 RAYON_NUM_THREADS=1 cargo test -q --offline --release --test serve_chaos
stage "serve chaos (RAYON_NUM_THREADS=4)"
TABMETA_SERVE_SOAK_SECS=30 RAYON_NUM_THREADS=4 cargo test -q --offline --release --test serve_chaos

# Benchmark smoke: perfbench (its own cargo workspace) compiles against
# the public serve and core API and checks every served verdict against
# an offline classify of the same tables, so a short serve_small run
# catches an API break or a wrong served verdict that the stages above
# would miss. Its last line is the contract JSON and must read
# "correct": true.
stage "perfbench serve_small smoke"
cargo build --release --offline --manifest-path perfbench/Cargo.toml
PERF_LAST="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload serve_small --seed 3 --seconds 2 --trace 0 | tail -n 1)"
if ! grep -q '"correct": true' <<<"$PERF_LAST"; then
  echo "perfbench serve_small smoke failed: $PERF_LAST" >&2
  exit 1
fi

# Traced benchmark smoke: the same workload with its per-layer
# breakdown. The breakdown replays each layer through the public calls
# the server makes (frame read, parse_payload::<Request>, classify,
# encode), and the remainder serve.other_us must not go negative. A
# server that decodes requests some other way than the replay does
# fails "correct" here.
stage "perfbench serve_small traced smoke"
PERF_LAST="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload serve_small --seed 3 --seconds 2 --trace 1 | tail -n 1)"
if ! grep -q '"correct": true' <<<"$PERF_LAST"; then
  echo "perfbench serve_small traced smoke failed: $PERF_LAST" >&2
  exit 1
fi

# Bulk benchmark smoke: the untraced classify_bulk run is the only place
# that checks 600-table batches, which classify_corpus splits across
# workers, against single-table verdicts (classify.batch_equals_single),
# same-seed set-ups against each other (classify.setups_agree), and the
# held-out HMD1/VMD1 accuracy floors.
stage "perfbench classify_bulk smoke"
PERF_LAST="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload classify_bulk --seed 3 --seconds 2 --trace 0 | tail -n 1)"
if ! grep -q '"correct": true' <<<"$PERF_LAST"; then
  echo "perfbench classify_bulk smoke failed: $PERF_LAST" >&2
  exit 1
fi

# Shard-chaos gate (tests/shard_chaos.rs): out-of-core streaming training
# under fire. Kills at *every* boundary the run exposes (vocab shard,
# encode shard, SGNS epoch, centroid shard) must resume byte-identical to
# an uninterrupted same-seed run at one thread; every seeded
# DiskFaultPlan kind must yield typed quarantine with exact conservation
# (accepted + quarantined == total), never a panic; budget spills and
# double kills must converge to the same model. Run both sequential and
# with the rayon extraction pool enabled.
stage "shard chaos (RAYON_NUM_THREADS=1)"
RAYON_NUM_THREADS=1 cargo test -q --offline --release --test shard_chaos
stage "shard chaos (RAYON_NUM_THREADS=4)"
RAYON_NUM_THREADS=4 cargo test -q --offline --release --test shard_chaos

# Mem-budget assertion: stream-train a multi-file generated corpus dir
# through the release binary — the counting allocator is live there, so
# the budget is enforced, not advisory. Under a budget far below the
# run's real peak the spill governor must fire at least once, the run
# must still complete, and the streamed model must classify.
stage "stream mem-budget assertion"
CHECK_TMP="$(mktemp -d)"
trap 'rm -rf "$CHECK_TMP"' EXIT
TABMETA=target/release/tabmeta
STREAM_DIR="$CHECK_TMP/stream-corpus"
mkdir -p "$STREAM_DIR"
for kind in saus wdc cius; do
  "$TABMETA" generate --corpus "$kind" --tables 400 --seed 2025 \
    --out "$STREAM_DIR/$kind.jsonl" >/dev/null
done
for threads in 1 4; do
  MODEL="$CHECK_TMP/streamed-$threads.tma"
  LINE="$(RAYON_NUM_THREADS=$threads "$TABMETA" train --stream \
    --corpus "$STREAM_DIR" --seed 2025 --shard-rows 512 \
    --mem-budget $((4 * 1024 * 1024)) --out "$MODEL" 2>/dev/null \
    | grep '^streamed ')"
  SPILLS="$(sed -n 's/.* \([0-9][0-9]*\) spills.*/\1/p' <<<"$LINE")"
  if [ -z "$SPILLS" ] || [ "$SPILLS" -eq 0 ]; then
    echo "stream budget governor never spilled (threads=$threads): $LINE" >&2
    exit 1
  fi
  "$TABMETA" classify --model "$MODEL" --corpus "$STREAM_DIR/saus.jsonl" >/dev/null
done

# Workspace-invariant static analysis (TM-L000..TM-L010, see LINTS.md):
# unseeded RNG, raw timing outside the obs layer, unsafe without SAFETY
# comments, metric names that bypass tabmeta_obs::names, stdout printing
# in library crates, plus the scope-aware concurrency pass — lock
# ordering against the LOCK_ORDER registry, atomic-ordering discipline,
# channel backpressure, thread lifecycle, error-reason exhaustiveness.
# The walk covers tests/ and examples/ too (workspace_self_check pins
# that), not just crate sources. Exits nonzero on any violation;
# suppressions require a written reason, and the suppression budget is
# zero.
stage "tabmeta-lint (full tree: crates/ + src/ + tests/ + examples/)"
cargo run -q -p tabmeta-lint --offline -- --workspace --json

# tabular/core/text/resilience carry crate-level
# `#![warn(clippy::unwrap_used, clippy::expect_used)]` (tests exempt via
# cfg_attr), so `-D warnings` below denies any unwrap/expect that sneaks
# back into the data path. `--all-targets` lints tests, examples and
# benches too.
stage "cargo clippy --workspace --all-targets"
cargo clippy --workspace --all-targets --offline -- -D warnings

stage "cargo fmt --check"
cargo fmt --check

# Rustdoc gate: every doc comment in the workspace, vendored crates
# included, renders without a warning (broken intra-doc links, unclosed
# HTML tags in prose).
stage "cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
stage

echo "All checks passed."
