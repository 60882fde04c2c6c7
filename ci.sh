#!/usr/bin/env sh
# Tier-1 verification: build, test, lint, and diff the two committed
# documents against the binaries that print them. Any failure aborts the
# script.
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
# One scan path, one ordered-merge executor on std's channel (a scoped
# map over shards: each worker holds one shard at a time and sends one
# value a shard, so no gate, no per-shard queue, no poison guard), one
# executor knob (workers), one classification entry, one timer (urbench),
# a daemon that never polls, one scan-flag parser, one way to start the
# daemon, a UR store that is a plain vector, no method the compiler found
# unused, a classifier that reads the metadata directly (no attribute
# cache), one `paper` binary in place of the nine regeneration
# binaries (`urhunter --report table1` stays legal), and a metrics
# registry of plain values that each layer publishes its own counts into
# once (no per-event mirror, no atomic handles), and name-keyed maps
# probed with folded bytes (no dynamic name-key trait), and one invariance
# harness in place of the six equality test files and the golden test,
# scan tasks as codes (no 24-byte task tuple), one scan order (each
# shard's computed order over a fixed shard layout: no
# global partition, tags or sort-merge, no per-worker layout or ethics
# clamp), a quarantine that lasts the run (no cooldown, health
# probe or release metric), a kept answer that is one buffer of
# record data (no owned records in a UR, no copied TXT strings, no owned
# family name in a verdict), and a scan that never waits on the support
# sweep (a shard that ends first is classified by the fold, so there is
# no release guard and no wait metric), and no extension that no committed
# number reads (no pcap export, egress monitor, passive-DNS target
# expansion or TXT payload matching, nor their flags, fields and tests,
# nor the payload corpus), no derived-timeout multiplier knob (it is
# TCP's constant 4), and one digest written byte by byte (no adapter
# from `fmt` to a std hasher, no generic `Hash`-fed helper), and one fold
# of verdicts behind `run`, `run_streamed` and `build_report` (no report
# builder, no funnel shard built apart from the fold, no digest-only row
# type), and a resolver that keeps its caches in folded-name maps (no
# `(Name, RecordType)` key cloned per lookup) and a fold that counts
# Table 1's Total row as the union of its per-type rows (no set of its
# own), and a scan of the paper's two record types (no MX extension: no
# flag, config, follow-up probe, auxiliary record set, MX exclusion,
# reason, Table 1 slot or test file), and a metrics registry that layers
# publish into directly (no worker-local counter shard to merge), and one
# pacing policy, the paper's per-server interval (no global rate cap: no
# flag, setter, shared bucket or cross-shard turn hand-off, no policy row
# whose waits alone must rise, no pinned cap figure), and a sequence
# digest that concatenates, so each worker folds its own shard (no
# compact row format parked for the calling thread to digest), and one
# probe-order rule set by pacing alone (an unpaced shard walks one
# provider's servers at a time, a paced one all of them: no RTT-ordered
# selector, feed variant, tie-break digest or test of its order), and a
# sequence digest that
# does not care about order (each row hashes its UR's position, its
# shard and its index in the shard's order, and the rows add), so shards
# merge as they end: no ordered-merge executor, no parked shard value, no
# buffer that releases a paced shard's URs in list order, no digest base
# and no appending of one digest to another, and streamed verdicts
# folded while their reply is read (no classify batch, no probe entry that
# keeps its answers apart from the one that reads them, no stub query
# with a timeout of its own), and names compressed by reading the message
# back (no compression trie, no deferred first name): none of the names
# of what was removed may come back in code, tests or docs. (`fn
# hash_one` is the deleted helper; std's `BuildHasher::hash_one`, which
# the map hasher's tests call, stays legal.)
if grep -rnE 'ordered_pipeline|stream_batch_size|OverlapStats|collect_urs_stream\b|--batch-size|classify_all|classify_ur\b|par_map|perf_snapshot|xl_stream|daemon_bench|pipeline_hash|metrics_overhead_ratio|URHUNTER_BENCH_XL|criterion_group|cargo bench|interruptible_sleep|set_nonblocking|validate_workers|urhunter daemon|all_names|credential_stealer|generic_trojan|scanner_bot|planned_campaigns|zone_mut|rule_count|is_recursive|registrable_domain|public_suffix_of|record_count|IntoBatches|RecordSpan|store_equivalence|columnar|experiment_run|--bin (table1|figure2|figure3|table2|zero_fn|ablation|lossy_scan|longitudinal|mitigation)\b|with_shards|BatchChannel|bulk_scan_shards|AttrIndex|IpAttrs|get_or_resolve|AttrCacheMetrics|attr_cache_|absorb_missing|SHARD_QUEUE_BOUND|EngineObs|HistCell|obs::(Counter|Gauge|Histogram)\b|NameKey|tests/(sharding|adaptive_equivalence|streamed_parallel|observability|fault_tolerance|daemon_log|golden)\.rs|\(usize, usize, RecordType\)|partition_scan_tasks|ShardTask|collect_urs_sharded_on|scan_shards|quarantine_cooldown|health_probe|probe_ns_released|txt_strings|aux_records|PublishOnExit|classify_wait_us|EgressMonitor|BypassAlert|simnet::pcap|to_pcap|--pcap|--expand-pdns|expand_targets_from_pdns|with_pdns_expansion|subdomains_of|--payload-match|match_txt_payloads|with_payload_matching|payload_matched|tests/(pdns_expansion|txt_payloads)\.rs|with_rtt_k|--rtt-k|PayloadSignature\b|match_text|match_payload|HashWriter|fn hash_one\b|ReportBuilder|classify_shard|absorb_one|DigestRow|HashMap<\(Name, RecordType\)|acc_total|--extended|HunterConfig::extended|classify_mx|MxExact|mx_exact|saw_mx|mx_extension|MetricShard|merge_shard|SharedTokenBucket|with_shared_global|finish_shard|with_rate_limit_per_sec|WaitRises|rate_limit_2_per_s|--rate-limit|ShardGate|GateState|ShardItem|wait_admitted|DigestBatch|VerdictRow|RttSelector|RTT-ordered|TaskFeed::Rtt|rtt_selection|InOrder\b|sharded_ordered_fold|SeqDigest::append|digest\.append\(|0x1f3d_5b79_7a5c_3e1f|CLASSIFY_BATCH|query_keeping|dns_query_with_timeout|defer_first|suffix_nodes|pointer_to_first|txt_category_of|SPARE_MAPS' \
    crates tests examples README.md DESIGN.md EXPERIMENTS.md; then
    echo "ci.sh: a deleted name is back (see the matches above)" >&2
    exit 1
fi

echo "== stale names: one world plan =="
# One plan describes a world, and World::generate and StreamWorld::generate
# materialize it: no second provider spec or campaign type, no sequential
# planters, no Rc-shared oracle node, no weighted-key provider sort, and
# no MX record planted anywhere.
if grep -rnE 'StreamProviderSpec|StreamCampaign|OracleRecursiveNs|plant_generic_campaigns|host_anywhere|take_highest|RecordType::Mx' \
    crates/worldgen/src; then
    echo "ci.sh: a name of the second world generator is back (see the matches above)" >&2
    exit 1
fi

echo "== stale names: a scan order that is computed, not stored =="
# A shard shuffles one server's codes once and computes each task's
# position from its run, round and slot: no task list, no search of it
# for a provider's run, no links for the paced rounds. Whole words only:
# the proptest `paced_rounds_is_the_same_on_every_call` keeps its name.
if grep -rnwE 'build_scan_tasks|provider_runs|paced_rounds|ScanTask' crates/core/src; then
    echo "ci.sh: a name of the stored scan order is back (see the matches above)" >&2
    exit 1
fi

echo "== stale names: one fault schedule and one probe entry =="
# Every datagram's fate, a corruption's bit included, is drawn from its
# flow: no RNG stream of the fabric's own, no per-shard reseeding of it,
# no switch between the two schedules. And a probe's answer is read where
# it lies: no reply type that copies it out. Whole words only: the tests
# `per_flow_fates*` and the identity `scheduled_per_flow` stay legal.
if grep -rnwE 'with_rng_seed|per_flow' crates/simnet/src crates/worldgen/src ||
    grep -rnw 'ProbeReply' crates/core/src; then
    echo "ci.sh: a name of the second fault schedule or the copied reply is back (see the matches above)" >&2
    exit 1
fi

echo "== size: every count at or under its SIZE row, and within 2 % of it =="
# Aim 2 is the same behaviour from less code; SIZE is its budget. It has
# one row for each crate (the non-test lines of `crates/NAME/src`, each
# file counted up to its first `#[cfg(test)]`), one for the integration
# tests in `tests/*.rs` and one for each of three documents. A count
# above its row fails, and so does one more than 2 % below it, so the
# change that earns a lower budget lowers the row. A raise is a refresh
# of the row in the same diff, with its reason in CHANGES.md.
size_of() {
    case "$1" in
    crates/*)
        find "$1/src" -name '*.rs' -exec awk '
            FNR == 1 { in_tests = 0 }
            /#\[cfg\(test\)\]/ { in_tests = 1 }
            !in_tests { n++ }
            END { print n + 0 }
        ' {} + | awk '{ n += $1 } END { print n + 0 }'
        ;;
    tests) cat tests/*.rs | wc -l | tr -d ' ' ;;
    *) wc -l <"$1" | tr -d ' ' ;;
    esac
}
SIZE_FAILED=0
for crate in crates/*; do
    grep -q "^$crate " SIZE || {
        echo "ci.sh: $crate has no row in SIZE" >&2
        SIZE_FAILED=1
    }
done
while read -r path budget; do
    case "$path" in '' | '#'*) continue ;; esac
    count=$(size_of "$path")
    if [ "$count" -gt "$budget" ] || [ $((count * 100)) -lt $((budget * 98)) ]; then
        echo "ci.sh: $path counts $count lines against its SIZE row of $budget" >&2
        SIZE_FAILED=1
    fi
done <SIZE
[ "$SIZE_FAILED" -eq 0 ] || exit 1

echo "== digests: no std DefaultHasher in product code =="
# Every committed hash, and every hash that decides scan behaviour, is
# fxhash::Digest over bytes its caller writes; std leaves DefaultHasher's
# algorithm, and the bytes a `Hash` impl feeds it, free to change. Each
# file counts up to its first `#[cfg(test)]`: tests may still compare
# against std.
STD_HASHER=$(find crates/*/src -name '*.rs' -exec awk '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && /DefaultHasher/ { print FILENAME ":" FNR ": " $0 }
' {} +)
if [ -n "$STD_HASHER" ]; then
    printf '%s\n' "$STD_HASHER" >&2
    echo "ci.sh: std's DefaultHasher is back in product code (use fxhash::Digest)" >&2
    exit 1
fi

echo "== codec: only dnswire builds or decodes an owned Message in product code =="
# Servers, the scanner and the resolver read datagrams in place
# (MessageView) and write them front to back (encode_query,
# MessageWriter); the owned Message is for tests and examples. Each
# file counts up to its first `#[cfg(test)]`.
OWNED_MESSAGE=$(find crates/*/src -name '*.rs' -not -path 'crates/dnswire/*' -exec awk '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && /Message::(decode|query|response_to)([^A-Za-z0-9_]|$)/ { print FILENAME ":" FNR ": " $0 }
' {} +)
if [ -n "$OWNED_MESSAGE" ]; then
    printf '%s\n' "$OWNED_MESSAGE" >&2
    echo "ci.sh: product code outside dnswire builds or decodes an owned Message" >&2
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

echo "== every library crate forbids unsafe code =="
# No crate needs `unsafe`: the interner's lock-free reads are std's
# `OnceLock` slots, and the map hasher is plain arithmetic.
for lib in crates/*/src/lib.rs; do
    grep -q '^#!\[forbid(unsafe_code)\]$' "$lib" || {
        echo "ci.sh: $lib lacks #![forbid(unsafe_code)]" >&2
        exit 1
    }
done

echo "== urbench: build, unit tests, quick run =="
# The benchmark is a package of its own that tier-1 never compiles; its
# one file of calls into the program (urbench/src/adapter.rs) is frozen,
# so a change that breaks that surface has to be caught here. The quick
# run scans small worlds through all four workloads and exits non-zero
# when one of its checks fails. Building it rewrites its tracked (stale,
# frozen) lock file, which is put back however the script ends.
trap 'git checkout -q urbench/Cargo.lock' EXIT
cargo build --release --manifest-path urbench/Cargo.toml
cargo test -q --manifest-path urbench/Cargo.toml
./urbench/target/release/urbench run --quick || {
    echo "ci.sh: urbench run --quick failed a check" >&2
    exit 1
}

echo "== urbench: the counted run's allocation counts repeat exactly =="
# urbench fails a traced run whose two counted children differ by more
# than 1e-4 in these three counts, and the collect span is down to about
# one allocation in five probes (0.20 at seed 7): anything on the scan
# path that allocates by a map's per-process iteration order flips that
# check. Six fresh processes
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

echo "== paper: every table and figure, byte for byte =="
# One binary regenerates the paper's evaluation as the committed
# RESULTS.md and exits non-zero when a measured value leaves its band; a
# number that moved shows as a diff line. Refresh with
# `./target/release/paper > RESULTS.md` and give the reason in CHANGES.md.
# The sections are worker-count invariant, so one worker must print the
# same file.
./target/release/paper | diff -u RESULTS.md - || {
    echo "ci.sh: paper differs from the committed RESULTS.md (or a band failed)" >&2
    exit 1
}
URHUNTER_PARALLELISM=1 ./target/release/paper | diff -u RESULTS.md - || {
    echo "ci.sh: paper on one worker differs from the committed RESULTS.md (or a band failed)" >&2
    exit 1
}
# More workers than this box has cores: the default-scale run() sweeps for
# support records on the calling thread beside four scan workers.
URHUNTER_PARALLELISM=4 ./target/release/paper | diff -u RESULTS.md - || {
    echo "ci.sh: paper on four workers differs from the committed RESULTS.md (or a band failed)" >&2
    exit 1
}

echo "== fault matrix: the invariance harness, its ignored 32-run matrix included =="
# One table-driven binary holds every invariance claim: execution axes
# (workers x hub), policies (adaptive, ethics pacing, retry
# plans), networks, the streamed fold and the daemon's epoch stream.
cargo test -q --release -p bench --test invariance
cargo test -q --release -p bench --test invariance -- --ignored
# The direct exchange against the event loop under every fault kind: the
# property runs 96 cases in the debug build tier-1 uses, 16,384 here.
cargo test -q --release -p simnet --lib a_direct_exchange_is_the_event_loops
# The compact zone, its SOA derived from the apex, against the stored-SOA
# zone it replaced, through the static and the provider node: 128 cases
# in the debug build, 16,384 here.
cargo test -q --release -p authdns --test differential
# The daemon's control plane over a real socket, in the build the
# benchmark runs: a scan thread in release can pass an epoch between two
# polls that a debug build would catch.
cargo test -q --release -p urhunterd --test daemon_http

echo "== adaptive battery: adaptive_props =="
cargo test -q --release --test adaptive_props

echo "== smoke: urhunter --metrics-out =="
METRICS_OUT=$(mktemp /tmp/urhunter-metrics.XXXXXX.jsonl)
cargo run --release -q -p urhunter --bin urhunter -- --metrics-out "$METRICS_OUT" >/dev/null
# The export must be non-empty, valid JSONL (one object per line), and
# carry the probe funnel.
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

echo "== determinism: the sim-class metrics export at one and four workers =="
# Every sim-class metric is a pure function of the simulated world, and
# each layer publishes its counts once whatever the worker count, so the
# export's sim-class metric lines must match byte for byte.
SIM_DIR=$(mktemp -d /tmp/urhunter-sim.XXXXXX)
for P in 1 4; do
    URHUNTER_PARALLELISM=$P ./target/release/urhunter --metrics-out "$SIM_DIR/m$P.jsonl" >/dev/null 2>&1
    grep '"record":"metric"' "$SIM_DIR/m$P.jsonl" | grep '"class":"sim"' >"$SIM_DIR/sim$P"
done
test -s "$SIM_DIR/sim1" || {
    echo "ci.sh: the one-worker export has no sim-class metric lines" >&2
    exit 1
}
diff -u "$SIM_DIR/sim1" "$SIM_DIR/sim4" || {
    echo "ci.sh: sim-class metrics differ between one and four workers" >&2
    exit 1
}
rm -rf "$SIM_DIR"

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

echo "== worker matrix: one worker vs the default vs --workers 4 =="
# The worker count must be invisible in the output: the full table1
# rendering (per-provider verdict counts) has to match bit for bit
# between one worker (every shard on the calling thread), the default
# and four workers claiming the same eight shards on the small world.
ONE_WORKER_OUT=$(URHUNTER_PARALLELISM=1 ./target/release/urhunter --report table1 2>/dev/null)
test -n "$ONE_WORKER_OUT" || {
    echo "ci.sh: one-worker smoke run produced no table1 output" >&2
    exit 1
}
for WORKER_ARGS in "" "--workers 4"; do
    # Unquoted: the empty entry expands to no argument at all.
    WORKER_OUT=$(./target/release/urhunter $WORKER_ARGS --report table1 2>/dev/null)
    if [ "$ONE_WORKER_OUT" != "$WORKER_OUT" ]; then
        echo "ci.sh: '$WORKER_ARGS' output diverges from the one-worker run" >&2
        exit 1
    fi
done

echo "== smoke: --shards is refused where it cannot apply =="
# --shards is the world-shard count of `urhunter --world paper|xl` only:
# on a materialized world, and on urhunterd, it must exit 2.
for BIN in urhunter urhunterd; do
    STATUS=0
    ./target/release/$BIN --shards 4 >/dev/null 2>&1 || STATUS=$?
    if [ "$STATUS" -ne 2 ]; then
        echo "ci.sh: $BIN --shards 4 exited $STATUS, not 2" >&2
        exit 1
    fi
done

echo "== smoke: urhunter checks --report where it parses it =="
# An unknown report, and a report on a streamed world (which renders
# none), must exit 2 before any world is generated or scanned.
for REPORT_ARGS in "--report nope" "--world xl --report table1"; do
    STATUS=0
    # Unquoted: each entry is two or four arguments.
    ./target/release/urhunter $REPORT_ARGS >/dev/null 2>&1 || STATUS=$?
    if [ "$STATUS" -ne 2 ]; then
        echo "ci.sh: urhunter $REPORT_ARGS exited $STATUS, not 2" >&2
        exit 1
    fi
done

echo "== smoke: urhunter --adaptive vs fixed table1 =="
# Adaptive scheduling may only move the simulated clock: the full table1
# rendering must match the fixed-timeout run bit for bit.
ADAPTIVE_OUT=$(./target/release/urhunter --adaptive --report table1 2>/dev/null)
if [ "$ONE_WORKER_OUT" != "$ADAPTIVE_OUT" ]; then
    echo "ci.sh: --adaptive output diverges from the fixed-timeout run" >&2
    exit 1
fi

echo "== invariants: every hash, count and simulated microsecond, byte for byte =="
# One deterministic binary runs every execution axis (workers x hub,
# fixed vs adaptive under loss, the paper's pacing on one worker and four,
# the xl fold at 1, 2 and 4 workers and paced at automatic workers, three
# daemon epochs and their replay), asserts
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
URHUNTER_PARALLELISM=4 ./target/release/invariants | diff -u BENCH_pipeline.json - || {
    echo "ci.sh: invariants on four workers differ from the committed BENCH_pipeline.json" >&2
    exit 1
}

echo "== the paper-scale run, byte for byte =="
# WorldConfig::paper() at seed 9, streamed at automatic workers: its UR
# counts, digest, clock, its clock and waits paced at the paper's 130 s
# (within the per-server bound), Table 1's Total row and Figure 2's top
# five.
# Refresh with `./target/release/invariants --paper > BENCH_paper.json`
# and give the reason in CHANGES.md.
./target/release/invariants --paper | diff -u BENCH_paper.json - || {
    echo "ci.sh: the paper-scale run differs from the committed BENCH_paper.json" >&2
    exit 1
}

echo "ci.sh: all checks passed"
