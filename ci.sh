#!/usr/bin/env sh
# Tier-1 verification: build, test, lint, and smoke-run one regeneration
# binary. Any failure aborts the script.
set -eu

cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test -q

echo "== cargo clippy --all-targets -- -D warnings =="
cargo clippy --all-targets -- -D warnings

echo "== cargo doc --no-deps (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "== stale names: the deleted executor, collectors, knobs, timers and dead code stay deleted =="
# One scan path, one ordered-merge executor, two executor knobs, one
# classification entry, one timer (urbench), a daemon that never polls,
# one scan-flag parser, one way to start the daemon, a UR store that is a
# plain vector, and no method the compiler found unused: none of the names
# of what was removed may come back in code, tests or docs.
if grep -rnE 'ordered_pipeline|stream_batch_size|OverlapStats|collect_urs_stream\b|--batch-size|classify_all|classify_ur\b|par_map|perf_snapshot|xl_stream|daemon_bench|pipeline_hash|metrics_overhead_ratio|URHUNTER_BENCH_XL|criterion_group|cargo bench|interruptible_sleep|set_nonblocking|validate_workers|urhunter daemon|all_names|credential_stealer|generic_trojan|scanner_bot|planned_campaigns|zone_mut|rule_count|is_recursive|registrable_domain|public_suffix_of|record_count|IntoBatches|RecordSpan|store_equivalence|columnar' \
    crates tests examples README.md DESIGN.md EXPERIMENTS.md; then
    echo "ci.sh: a deleted name is back (see the matches above)" >&2
    exit 1
fi

echo "== every library crate lints its public surface =="
# `unreachable_pub` keeps each crate's surface to what other crates use,
# so `dead_code` can see the rest; the clippy step above turns both into
# errors. It lives in each lib.rs, not in [workspace.lints], which would
# also lint the frozen urbench sources that tests/urbench_surface.rs
# includes.
for lib in crates/*/src/lib.rs; do
    grep -q '^#!\[warn(unreachable_pub)\]$' "$lib" || {
        echo "ci.sh: $lib lacks #![warn(unreachable_pub)]" >&2
        exit 1
    }
done

echo "== urbench: build, unit tests, quick run =="
# The benchmark is a package of its own that tier-1 never compiles; its
# one file of calls into the program (urbench/src/adapter.rs) is frozen,
# so a change that breaks that surface has to be caught here. The quick
# run scans small worlds through all four workloads and exits non-zero
# when one of its checks fails.
cargo build --release --manifest-path urbench/Cargo.toml
cargo test -q --manifest-path urbench/Cargo.toml
./urbench/target/release/urbench run --quick || {
    echo "ci.sh: urbench run --quick failed a check" >&2
    exit 1
}

echo "== urbench: the counted run's allocation counts repeat exactly =="
# urbench fails a traced run whose two counted children differ by more
# than 1e-4 in these three counts, and the collect span is down to about
# one allocation a probe: anything on the scan path that allocates by a
# map's per-process iteration order flips that check. Six fresh processes
# a seed must print one value each.
COUNTED='^N span_(allocs\.core\.(collect|classify)|alloc_bytes\.core\.collect) '
for seed in 1 7; do
    COUNTS=$(for _ in 1 2 3 4 5 6; do
        ./urbench/target/release/urbench child scan_eager "$seed" counted full 0
    done | grep -E "$COUNTED" | sort -u)
    if [ "$(printf '%s\n' "$COUNTS" | wc -l)" -ne 3 ]; then
        echo "ci.sh: allocation counts differ between counted runs at seed $seed:" >&2
        printf '%s\n' "$COUNTS" >&2
        exit 1
    fi
done
./urbench/target/release/urbench --workload scan_eager --seed 7 --seconds 25 --trace 1 |
    tail -n 1 | grep -q '^{"correct": true,' || {
    echo "ci.sh: the traced scan_eager run did not end in \"correct\": true" >&2
    exit 1
}

echo "== smoke: cargo run -p bench --bin table1 =="
cargo run --release -p bench --bin table1

echo "== fault matrix: cargo test --release --test fault_tolerance =="
cargo test -q --release --test fault_tolerance
cargo test -q --release --test fault_tolerance -- --ignored

echo "== adaptive battery: adaptive_props + adaptive_equivalence =="
cargo test -q --release --test adaptive_props
cargo test -q --release --test adaptive_equivalence

echo "== smoke: urhunter --metrics-out =="
METRICS_OUT=$(mktemp /tmp/urhunter-metrics.XXXXXX.jsonl)
cargo run --release -q -p urhunter --bin urhunter -- --metrics-out "$METRICS_OUT" >/dev/null
# The export must be non-empty, valid JSONL (one object per line), and
# carry the probe funnel; the binary itself exits non-zero if the
# registry's probe_scheduled disagrees with the CoverageReport.
test -s "$METRICS_OUT" || {
    echo "ci.sh: metrics export is empty" >&2
    exit 1
}
if grep -qv '^{.*}$' "$METRICS_OUT"; then
    echo "ci.sh: metrics export has a non-JSON-object line" >&2
    exit 1
fi
grep -q '"name":"probe_scheduled"' "$METRICS_OUT" || {
    echo "ci.sh: metrics export is missing the probe funnel" >&2
    exit 1
}
rm -f "$METRICS_OUT"

echo "== smoke: urhunter --metrics-out (Prometheus via .prom) =="
# Same run, Prometheus extension: the CLI must route through the shared
# exporter and emit valid exposition text.
PROM_OUT=$(mktemp /tmp/urhunter-metrics.XXXXXX.prom)
cargo run --release -q -p urhunter --bin urhunter -- --metrics-out "$PROM_OUT" >/dev/null
grep -q '^# TYPE probe_scheduled counter$' "$PROM_OUT" || {
    echo "ci.sh: .prom export is missing the Prometheus TYPE line" >&2
    exit 1
}
grep -q '^probe_scheduled{class="sim"} ' "$PROM_OUT" || {
    echo "ci.sh: .prom export is missing the probe funnel series" >&2
    exit 1
}
rm -f "$PROM_OUT"

echo "== daemon smoke: urhunterd serves and shuts down cleanly =="
# Start the daemon against the small world on a kernel-assigned port,
# capped at one epoch, with scan flags that go through the parser shared
# with urhunter; the quickstart client polls /healthz, queries /deltas and
# /verdict, cross-checks /metrics against /coverage, and requests
# shutdown. The daemon must then exit 0 on its own.
DAEMON_LOG=$(mktemp /tmp/urhunterd.XXXXXX.log)
./target/release/urhunterd --listen 127.0.0.1:0 --max-epochs 1 --retries 2 --timeout 2000 --adaptive \
    >"$DAEMON_LOG" 2>&1 &
DAEMON_PID=$!
DAEMON_ADDR=""
for _ in $(seq 1 100); do
    DAEMON_ADDR=$(sed -n 's|^urhunterd: listening on http://||p' "$DAEMON_LOG")
    [ -n "$DAEMON_ADDR" ] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || break
    sleep 0.1
done
test -n "$DAEMON_ADDR" || {
    echo "ci.sh: urhunterd never announced its listen address" >&2
    cat "$DAEMON_LOG" >&2
    kill "$DAEMON_PID" 2>/dev/null || true
    exit 1
}
cargo run --release -q -p urhunterd --example daemon_quickstart -- "$DAEMON_ADDR" --shutdown || {
    echo "ci.sh: daemon quickstart client failed against $DAEMON_ADDR" >&2
    cat "$DAEMON_LOG" >&2
    kill "$DAEMON_PID" 2>/dev/null || true
    exit 1
}
wait "$DAEMON_PID" || {
    echo "ci.sh: urhunterd exited non-zero after /shutdown" >&2
    cat "$DAEMON_LOG" >&2
    exit 1
}
grep -q 'shut down after' "$DAEMON_LOG" || {
    echo "ci.sh: urhunterd did not report a clean shutdown" >&2
    cat "$DAEMON_LOG" >&2
    exit 1
}
rm -f "$DAEMON_LOG"

echo "== shard matrix: one shard vs the default vs --shards 4 =="
# The sharded scan must be invisible in the output: the full table1
# rendering (per-provider verdict counts) has to match bit for bit
# between one shard, the default (one shard per worker) and 4 shards on
# the small world. --shards is a floor under the worker count, so the
# one-shard reference needs one worker too.
SHARD1_OUT=$(URHUNTER_PARALLELISM=1 ./target/release/urhunter --shards 1 --report table1 2>/dev/null)
test -n "$SHARD1_OUT" || {
    echo "ci.sh: shard smoke run produced no table1 output" >&2
    exit 1
}
for SHARD_ARGS in "" "--shards 4"; do
    # Unquoted: the empty entry expands to no argument at all.
    SHARD_OUT=$(./target/release/urhunter $SHARD_ARGS --report table1 2>/dev/null)
    if [ "$SHARD1_OUT" != "$SHARD_OUT" ]; then
        echo "ci.sh: '$SHARD_ARGS' output diverges from the one-shard run" >&2
        exit 1
    fi
done

echo "== smoke: urhunter --adaptive vs fixed table1 =="
# Adaptive scheduling may only move the simulated clock: the full table1
# rendering must match the fixed-timeout run bit for bit.
ADAPTIVE_OUT=$(./target/release/urhunter --adaptive --report table1 2>/dev/null)
if [ "$SHARD1_OUT" != "$ADAPTIVE_OUT" ]; then
    echo "ci.sh: --adaptive output diverges from the fixed-timeout run" >&2
    exit 1
fi

echo "== invariants: every hash, count and simulated microsecond, byte for byte =="
# One deterministic binary runs every execution axis (shards x workers x
# hub, fixed vs adaptive under loss, a rate cap, the xl fold at 1 and 4
# workers, three daemon epochs and their replay), asserts
# the equalities between them and prints only values that repeat exactly
# on any host. A value that moved shows as a diff line and fails the run;
# refresh with `./target/release/invariants > BENCH_pipeline.json` and
# give the reason in CHANGES.md. Wall time and RSS are urbench's.
./target/release/invariants | diff -u BENCH_pipeline.json - || {
    echo "ci.sh: invariants differ from the committed BENCH_pipeline.json" >&2
    exit 1
}
# The daemon block runs at automatic workers, so on a multi-core host its
# scan is sharded; on one worker it is not, and the file must not move.
URHUNTER_PARALLELISM=1 ./target/release/invariants | diff -u BENCH_pipeline.json - || {
    echo "ci.sh: invariants on one worker differ from the committed BENCH_pipeline.json" >&2
    exit 1
}

# Building urbench rewrote its tracked (stale, frozen) lock file.
git checkout urbench/Cargo.lock

echo "ci.sh: all checks passed"
