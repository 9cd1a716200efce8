#!/usr/bin/env bash
# Repo-wide gate: build, tests, lints, benches compile.
#
# Offline-friendly: every external dependency is vendored under
# shims/, so --offline is the default; pass --online to let cargo
# touch the network (e.g. on a developer machine with a warm index).
#
# Usage: scripts/check.sh [--online] [--quick]
#   --quick  skip the release build and bench compilation

set -euo pipefail
cd "$(dirname "$0")/.."

NET=--offline
QUICK=0
for arg in "$@"; do
    case "$arg" in
        --online) NET= ;;
        --quick) QUICK=1 ;;
        *) echo "unknown flag: $arg" >&2; exit 2 ;;
    esac
done

run() {
    echo "==> $*"
    "$@"
}

# Tier 1: the seed gate — debug build + the full test suite.
run cargo build $NET
run cargo test -q $NET --workspace

# The pushdown/versioned-caching layer has a kill switch
# (XQSE_DISABLE_OPT=1 == Engine::set_optimize(false)) that must restore
# the unoptimized baseline exactly: re-run the semantic suites —
# conformance, chaos (staleness matrix), and the paper's use cases —
# with the optimizer disabled.
echo "==> XQSE_DISABLE_OPT=1 cargo test -q $NET --test conformance --test chaos --test use_cases --test figure3"
XQSE_DISABLE_OPT=1 cargo test -q $NET --test conformance --test chaos \
    --test use_cases --test figure3

# The prepared-plan cache and batched source access have their own,
# narrower kill switch (XQSE_DISABLE_BATCH=1 == Engine::set_batch(false))
# that restores the PR 2/3 parse-per-call, call-per-item behaviour while
# leaving the pushdown/caching layer on. Same semantic suites again.
echo "==> XQSE_DISABLE_BATCH=1 cargo test -q $NET --test conformance --test chaos --test use_cases --test figure3"
XQSE_DISABLE_BATCH=1 cargo test -q $NET --test conformance --test chaos \
    --test use_cases --test figure3

# Zero-copy XDM construction has its own kill switch
# (XQSE_DISABLE_GRAFT=1 == Engine::set_graft(false)) that restores
# deep-copy element construction while leaving interning and the other
# optimizer layers on. Grafted and copied construction must be
# observably identical, so: same semantic suites a third time.
echo "==> XQSE_DISABLE_GRAFT=1 cargo test -q $NET --test conformance --test chaos --test use_cases --test figure3"
XQSE_DISABLE_GRAFT=1 cargo test -q $NET --test conformance --test chaos \
    --test use_cases --test figure3

# The serving benchmark's own tests (a crate outside the workspace):
# every reply is checked against fixture or closed-form values and,
# by digest, against a direct single-thread replay, so evaluator
# changes that alter a reply fail here.
run cargo test -q $NET --manifest-path perfbench/Cargo.toml

# Crash-recovery chaos matrix: the journaled-2PC acceptance gate.
# Crashes the coordinator at every protocol point (FaultKind::CrashPoint
# on the Op::Xa* ops), asserts divergent source state before recover()
# and the atomicity invariant after, and counter-asserts that recovery
# is a no-op on a clean journal and idempotent on a dirty one.
run cargo test -q $NET --test chaos xa_

# Serving-pool concurrency gate: the canonical shard-lock-order
# regression (two workers submitting overlapping table sets in
# opposite declaration order), the 4-worker mixed read/write/XA soak
# under a fault plan (timeouts + breaker trip + coordinator crash,
# with post-recovery atomicity and monotonic table versions), and the
# pooled-vs-sequential read-equivalence property.
run cargo test -q $NET --test chaos serve_

# Request-budget gate (PR 8): the cancel-at-every-XA-protocol-point
# stall matrix (a budget must never split a distributed transaction),
# the pool admission books (completed + shed + cancelled = offered),
# fuel/deadline/memory enforcement, worker-panic containment, and the
# no-partial-writes property under random interruption. Then the kill
# switch: XQSE_DISABLE_BUDGETS=1 must make every budget spec inert,
# restoring the pre-budget serving behavior.
run cargo test -q $NET --test chaos budget_
echo "==> XQSE_DISABLE_BUDGETS=1 cargo test -q $NET --test chaos budget_kill_switch"
XQSE_DISABLE_BUDGETS=1 cargo test -q $NET --test chaos budget_kill_switch

# Lints. Clippy may be absent in minimal toolchains; warn, don't fail.
# Note: the optimizer-layer modules (xqeval/engine.rs, aldsp/rel.rs,
# aldsp/introspect.rs) carry in-source `#![deny(clippy::unwrap_used)]`,
# so this pass also rejects panicking unwraps on those read paths.
if cargo clippy --version >/dev/null 2>&1; then
    run cargo clippy $NET --workspace --all-targets -- -D warnings
else
    echo "==> cargo clippy unavailable; skipping lint pass" >&2
fi

if [ "$QUICK" -eq 0 ]; then
    run cargo build $NET --release
    # Benches must at least compile (running them is a manual step).
    run cargo bench $NET --workspace --no-run

    # Journal-overhead guard: the journaled coordinator must stay
    # within 5% of the plain one on the no-fault path (bench_xa has the
    # matching criterion cases). Wall-clock on shared hardware is
    # noisy: warn, don't fail.
    echo "==> cargo test -q $NET --release --test chaos xa_journal_overhead_guard -- --ignored"
    cargo test -q $NET --release --test chaos xa_journal_overhead_guard -- --ignored \
        || echo "==> xa journal overhead guard exceeded its 5% budget (warning only)" >&2

    # Budget-overhead guard: a fully armed budget that never trips
    # must stay within 5% of the unbudgeted evaluator (bench_resilience
    # has the matching budget_none / budget_armed_never_trips cases).
    # Same noise caveat: warn, don't fail.
    echo "==> cargo test -q $NET --release --test chaos budget_overhead_guard -- --ignored"
    cargo test -q $NET --release --test chaos budget_overhead_guard -- --ignored \
        || echo "==> budget overhead guard exceeded its 5% budget (warning only)" >&2

    # Bench-regression tripwire: run the quick experiment table
    # (including E14, the serving-pool throughput curve, and E16, the
    # zero-copy construction ablation — which self-asserts byte-equal
    # graft/copy serialization on every run), compare against the
    # checked-in BENCH_E*.json baselines. Timing-column
    # regressions beyond 25 % WARN (quick mode on shared hardware is
    # noisy); a >15 % QPS drop on the E14 pool-4 row is a HARD FAIL —
    # that is the whole point of this PR and it must not quietly rot.
    BENCH_TMP=$(mktemp -d)
    trap 'rm -rf "$BENCH_TMP"' EXIT
    echo "==> exptab quick --json --out $BENCH_TMP"
    cargo run -q $NET --release -p xqse-bench --bin exptab -- \
        quick --json --out "$BENCH_TMP"
    if command -v python3 >/dev/null 2>&1; then
        set +e
        python3 scripts/bench_diff.py "$BENCH_TMP" . --warn-pct 25 --qps-fail-pct 15
        BENCH_RC=$?
        set -e
        if [ "$BENCH_RC" -eq 2 ]; then
            echo "==> 4-worker serving-pool QPS regressed beyond the 15% tripwire" >&2
            exit 1
        elif [ "$BENCH_RC" -ne 0 ]; then
            echo "==> bench baseline check reported regressions (warning only)" >&2
        fi
    else
        echo "==> python3 unavailable; skipping bench baseline diff" >&2
    fi
fi

echo "OK"
