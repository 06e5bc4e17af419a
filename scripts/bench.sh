#!/usr/bin/env bash
# Regenerates the machine-readable benchmark records checked in at the repo
# root (BENCH_fig3.json, BENCH_fig4.json, BENCH_table2.json) from a dedicated
# metrics-enabled build tree. The default build stays metrics-free — the
# DTREE_METRIC_* macros fold to nothing there (see src/util/metrics.h) — so
# this script configures its own build-metrics/ with -DDATATREE_METRICS=ON
# and never touches build/.
#
# Usage: scripts/bench.sh [--smoke|--full]
#   (none)   quick mode: the benches' default sizes (~a minute)
#   --smoke  CI-sized runs (seconds) — used by the smoke-bench CI job
#   --full   paper-scale runs (hours on a laptop; see EXPERIMENTS.md)
#
# Env: JOBS=<n>     build parallelism        (default: nproc)
#      OUT_DIR=<d>  where BENCH_*.json land  (default: repo root)
#
# After each run the emitted JSON is validated (python3, when available):
# it must parse, and the fig4 record — the multi-threaded one — must show
# nonzero split, hint-hit, and lock-validation-failure counters, i.e. the
# instrumentation actually observed concurrent tree growth. The table2 record
# (16-thread skewed doop-like evaluation) must additionally show the runtime
# scheduler at work: pool regions executed, chunks dispatched, and at least
# one successful steal rebalancing the skewed outer fanout. The snapshot
# record (reader x writer sweep, BENCH_snapshot.json) must show nonzero
# snapshot_pins / epoch_advances / CoW images, and image reclamation: the
# live retained bytes left at the end must be below the cumulative CoW
# bytes (DESIGN.md §11), while the fig4 record
# doubles as the snapshot-OFF leg: its epoch/snapshot counters must all be
# zero, proving the default trees never paid for the epoch layer. The serve
# record (BENCH_serve.json) must show nonzero ingest-batch / refixpoint
# counters and per-workload equal + probe_consistent flags: the incremental
# commits really re-entered the delta-driven fixpoint and matched the
# one-shot oracle while probe readers were live. The net record
# (BENCH_net.json) must show real traffic — nonzero net_connections and
# net_frames_in, per-op latency histograms with samples — plus the equal +
# consistent flags: concurrent wire clients committed and queried over
# loopback sockets and the served state matched the one-shot oracle. The
# fingerprint record
# (BENCH_fig4_fp.json, the --fingerprints leg) must show leaf layout v2 at
# work — nonzero fp_probes / fp_skips / append_inserts — and the default
# fig4/fig3/table2 records double as the fingerprints-OFF leg with all-zero
# fp counters (DESIGN.md §15).
#
# The v2 probe claim is timed apart from the counters: the metrics build's
# counter increments distort the very cells it compares. ablation_search is
# also built in a default (non-metrics) tree, build-bench/, and run three
# times with --reps=5; the median over those runs of the fp/v1 probe ratio
# must be >= 1.15 for each key kind (miss-dominated membership probes at
# the default block size, both cells on the default in-node search).

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
OUT_DIR="${OUT_DIR:-.}"
MODE=quick
for arg in "$@"; do
  case "$arg" in
    --smoke) MODE=smoke ;;
    --full)  MODE=full ;;
    *) echo "usage: scripts/bench.sh [--smoke|--full]" >&2; exit 2 ;;
  esac
done

BUILD=build-metrics
echo "== configuring $BUILD (DATATREE_METRICS=ON, mode: $MODE) =="
cmake -B "$BUILD" -S . -DDATATREE_METRICS=ON >/dev/null
cmake --build "$BUILD" -j"$JOBS" \
  --target fig3_sequential fig4_parallel_insert table2_stats fig5_datalog \
           ablation_search snapshot_reads serve_ingest serve_net
TIMING_BUILD=build-bench
echo "== configuring $TIMING_BUILD (default build, for timed ablation cells) =="
cmake -B "$TIMING_BUILD" -S . >/dev/null
cmake --build "$TIMING_BUILD" -j"$JOBS" --target ablation_search

case "$MODE" in
  smoke)
    # Sized so the whole suite finishes in well under a minute on one core
    # while still splitting nodes and racing threads (fig4: 2 sections x
    # {1,2,4} threads x 5 structures over 300k tuples each).
    FIG3_ARGS=(--sides=200,400)
    FIG4_ARGS=(--smoke --n=300000 --threads=1,2,4)
    TABLE2_ARGS=(--scale=400)
    FIG5_ARGS=(--scale=300 --threads=1,2)
    ABLATION_ARGS=(--n=100000)
    SNAPSHOT_ARGS=(--smoke)
    SERVE_ARGS=(--smoke)
    NET_ARGS=(--smoke)
    ;;
  quick)
    FIG3_ARGS=()
    FIG4_ARGS=(--smoke)
    TABLE2_ARGS=()
    FIG5_ARGS=(--scale=600 --threads=1,2,4)
    ABLATION_ARGS=()
    SNAPSHOT_ARGS=()
    SERVE_ARGS=()
    NET_ARGS=()
    ;;
  full)
    FIG3_ARGS=(--full)
    FIG4_ARGS=(--full)
    TABLE2_ARGS=(--full)
    FIG5_ARGS=(--full)
    ABLATION_ARGS=(--n=10000000)
    SNAPSHOT_ARGS=(--full)
    SERVE_ARGS=(--full)
    NET_ARGS=(--full)
    ;;
esac

run() { # run <bench-binary> <output-name> [args...]
  local bin=$1 out=$2
  shift 2
  echo "== $bin $* -> $out =="
  "./$BUILD/bench/$bin" "$@" --json="$OUT_DIR/$out"
}

run fig3_sequential     BENCH_fig3.json   "${FIG3_ARGS[@]}"
run fig4_parallel_insert BENCH_fig4.json  "${FIG4_ARGS[@]}"
# Leaf-layout-v2 companion record (DESIGN.md §15): the same sweep with a
# "btree (fp)" row running the fingerprint/append-zone tree. The fingerprint
# gates below assert this record really probed and appended, while the
# default fig4/fig3/table2 records stay all-zero on every fp counter —
# the policy-off trees never instantiate the layout.
run fig4_parallel_insert BENCH_fig4_fp.json "${FIG4_ARGS[@]}" --fingerprints
run table2_stats        BENCH_table2.json "${TABLE2_ARGS[@]}"
run fig5_datalog        BENCH_fig5.json   "${FIG5_ARGS[@]}"
run ablation_search     BENCH_ablation_search.json "${ABLATION_ARGS[@]}"
run snapshot_reads      BENCH_snapshot.json "${SNAPSHOT_ARGS[@]}"
# serve_ingest exits nonzero itself if the incremental fixpoint diverges from
# the one-shot oracle or a probe reader sees an inconsistent snapshot.
run serve_ingest        BENCH_serve.json "${SERVE_ARGS[@]}"
# serve_net drives a real loopback TCP server with concurrent wire clients;
# it exits nonzero if any client-side consistency obligation breaks or the
# served state diverges from the one-shot oracle.
run serve_net           BENCH_net.json "${NET_ARGS[@]}"
# The fp-probe timing runs (default build, see header). Their records are
# scratch inputs to the validator below, kept in the timing build tree.
for i in 1 2 3; do
  echo "== [default build] ablation_search ${ABLATION_ARGS[*]} --reps=5 (run $i/3) =="
  "./$TIMING_BUILD/bench/ablation_search" "${ABLATION_ARGS[@]}" --reps=5 \
    --json="$TIMING_BUILD/ablation_search_run$i.json"
done

if command -v python3 >/dev/null 2>&1; then
  echo "== validating emitted JSON =="
  python3 - "$OUT_DIR" "$TIMING_BUILD" <<'EOF'
import json, statistics, sys
out, timing_dir = sys.argv[1], sys.argv[2]
records = {}
for name in ("BENCH_fig3.json", "BENCH_fig4.json",
             "BENCH_fig4_fp.json", "BENCH_table2.json", "BENCH_fig5.json",
             "BENCH_ablation_search.json", "BENCH_snapshot.json", "BENCH_serve.json", "BENCH_net.json"):
    with open(f"{out}/{name}") as f:
        records[name] = json.load(f)
    print(f"   {name}: parses ok")

fig4 = records["BENCH_fig4.json"]
assert fig4["metrics_enabled"], "bench.sh must run a metrics-enabled build"
m = fig4["metrics"]
# The multi-threaded insert sweep must have grown trees (splits), used the
# operation hints, and actually contended on the optimistic locks.
for counter in ("btree_leaf_splits", "btree_root_replacements",
                "hint_hits_insert", "lock_validations_failed"):
    assert m.get(counter, 0) > 0, f"fig4 counter {counter} is zero"
    print(f"   fig4 {counter} = {m[counter]}")
# Leaf layout v2 (DESIGN.md §15). The --fingerprints fig4 leg and the
# ablation's fp cells must show the fingerprint machinery at work: probes
# issued, misses answered without key loads (fp_skips), and in-leaf inserts
# going through the append zone. fp_false_hits is workload-dependent (a
# 1-byte hash may legitimately never collide in a small run), so it is
# reported but not gated.
fp_rec = records["BENCH_fig4_fp.json"]["metrics"]
abl = records["BENCH_ablation_search.json"]["metrics"]
for tag, mm in (("fig4_fp", fp_rec), ("ablation", abl)):
    for counter in ("fp_probes", "fp_skips", "append_inserts"):
        assert mm.get(counter, 0) > 0, f"{tag} counter {counter} is zero"
    print(f"   {tag} fp_probes = {mm['fp_probes']}, fp_skips = "
          f"{mm['fp_skips']}, fp_false_hits = {mm.get('fp_false_hits', 0)}, "
          f"append_inserts = {mm['append_inserts']}, leaf_consolidations = "
          f"{mm.get('leaf_consolidations', 0)}")
# Fingerprint-off legs: the default fig4/fig3/table2 records run policy-off
# trees whose FpState is an empty member — every fp counter must be zero.
for name in ("BENCH_fig4.json", "BENCH_fig3.json", "BENCH_table2.json"):
    moff = records[name]["metrics"]
    for counter in ("fp_probes", "fp_skips", "fp_false_hits",
                    "append_inserts", "leaf_consolidations"):
        assert moff.get(counter, 0) == 0, \
            f"{name} (fingerprints-off) counter {counter} is nonzero"
print("   fig4/fig3/table2 (fingerprints-off) fp counters all zero")

# The point of the layout: on miss-dominated membership probes at the
# default BlockSize, the v2 fingerprint probe must beat the v1 tree on the
# same default in-node search by >= 15%. Timed on the default build: the
# median over three runs (each cell best of --reps=5) of the per-run ratio.
ratios = {"tuple": [], "u64": []}
for i in (1, 2, 3):
    with open(f"{timing_dir}/ablation_search_run{i}.json") as f:
        rec = json.load(f)
    assert not rec["metrics_enabled"], \
        "the fp-probe timing must come from a default (non-metrics) build"
    ptab = next(t for t in rec["throughput"]
                if "membership probes" in t["title"])
    for kind in ratios:
        v1 = next(v for n, v in ptab["series"].items()
                  if n.startswith(f"{kind} probe v1"))[0]
        fp = next(v for n, v in ptab["series"].items()
                  if n.startswith(f"{kind} probe fp"))[0]
        ratios[kind].append(fp / v1)
for kind, rs in ratios.items():
    med = statistics.median(rs)
    print(f"   ablation {kind} probes (default build): fp/v1 "
          f"{' / '.join(f'{r:.2f}' for r in rs)}x, median {med:.2f}x")
    assert med >= 1.15, \
        f"ablation {kind} probe: median fp/v1 {med:.2f}x < 1.15x"

table2 = records["BENCH_table2.json"]
s2 = table2["scheduler"]
# The 16-thread doop-like run is Zipf-skewed, so the work-stealing scheduler
# must have run regions on the persistent pool and rebalanced at least once.
# Zero steals here means either the pool never ran or the chunked fanout
# regressed to static partitioning. The counts are SchedulerStats, which
# every build keeps.
for counter in ("regions", "tasks", "threads_spawned", "steals"):
    assert s2.get(counter, 0) > 0, f"table2 scheduler {counter} is zero"
    print(f"   table2 scheduler {counter} = {s2[counter]}")

fig5 = records["BENCH_fig5.json"]
m5 = fig5["metrics"]
# The end-to-end evaluation must have rotated delta->full through the sorted
# bulk-merge path: whole runs streamed into the B-tree indexes, and at least
# one empty-index rotation taking the packed-load fast path (the first
# iteration of every recursive stratum qualifies). Zeros mean the engine
# silently fell back to the O(|NEW|) point-insert staging loop.
for counter in ("btree_bulk_runs", "btree_bulk_keys", "datalog_merge_fastpath"):
    assert m5.get(counter, 0) > 0, f"fig5 counter {counter} is zero"
    print(f"   fig5 {counter} = {m5[counter]}")

snap = records["BENCH_snapshot.json"]
# The reader/writer sweep must actually have pinned snapshots across epoch
# advances and retained copy-on-write images (DESIGN.md §11); zeros mean the
# epoch layer silently degraded to reading the live tree.
for counter in ("snapshot_pins", "epoch_advances", "snapshot_cow_images"):
    v = snap["metrics"].get(counter, 0)
    assert v > 0, f"snapshot counter {counter} is zero"
    assert snap["snapshot"][counter] == v, \
        f"snapshot section/metrics disagree on {counter}"
    print(f"   snapshot {counter} = {v}")
# Reclamation: images behind the oldest live pin are freed at every epoch
# advance, so what is still live at the end of each cell must be less than
# every byte ever copied. Equality means nothing was ever freed.
live = snap["snapshot"]["snapshot_retained_bytes"]
made = snap["snapshot"]["snapshot_cow_bytes"]
assert made == snap["metrics"].get("snapshot_cow_bytes", 0), \
    "snapshot section/metrics disagree on snapshot_cow_bytes"
assert live < made, \
    f"snapshot images never reclaimed: {live} live of {made} bytes made"
print(f"   snapshot retained {live} bytes live of {made} made")
# Snapshot-off leg: fig4 runs the default (non-snapshot) trees, and its
# record must stay untouched by the epoch layer — the paper-faithful
# configuration never pins, advances, or retains anything.
for counter in ("snapshot_pins", "epoch_advances", "snapshot_cow_images",
                "snapshot_cow_bytes"):
    assert m.get(counter, 0) == 0, \
        f"fig4 (snapshot-off) counter {counter} is nonzero"
print("   fig4 (snapshot-off) epoch/snapshot counters all zero")

serve = records["BENCH_serve.json"]
ms = serve["metrics"]
# The serve sweep must have committed batches through the incremental path:
# ingested tuples re-entering the delta-driven fixpoint (DESIGN.md §12).
# Zeros mean every commit short-circuited or bypassed ingest()/refixpoint().
for counter in ("datalog_ingest_batches", "datalog_ingest_tuples",
                "datalog_refixpoint_iterations"):
    assert ms.get(counter, 0) > 0, f"serve counter {counter} is zero"
    print(f"   serve {counter} = {ms[counter]}")
for rec in serve["serve"]:
    w = rec["workload"]
    assert rec["equal"], f"serve {w}: incremental != one-shot fixpoint"
    assert rec["probe_consistent"], f"serve {w}: probe reader saw torn snapshot"
    assert rec["commits"] > 0, f"serve {w}: no commits ran"
    assert rec["latency"]["count"] == rec["commits"], \
        f"serve {w}: latency histogram count != commits"
    assert rec["probe_pins"] > 0, f"serve {w}: probe readers never pinned"
    print(f"   serve {w}: equal ok, {rec['commits']} commits, "
          f"p99 {rec['latency']['p99_us']:.1f} us, "
          f"{rec['probe_pins']} probe pins")

net = records["BENCH_net.json"]
mn = net["metrics"]
nrec = net["net"]
# The wire sweep must show real loopback traffic through the server's hot
# counters — sessions accepted and frames decoded — and the same numbers in
# the server section of the record (both sides count independently: the
# global metrics registry vs the per-server atomics).
for counter in ("net_connections", "net_frames_in", "net_frames_out",
                "net_commits_queued"):
    assert mn.get(counter, 0) > 0, f"net counter {counter} is zero"
    print(f"   net {counter} = {mn[counter]}")
assert nrec["server"]["connections"] == mn["net_connections"], \
    "net server section/metrics disagree on connections"
assert nrec["equal"], "net: served state != one-shot oracle"
assert nrec["consistent"], "net: a wire client saw an inconsistency"
assert nrec["commits"] > 0, "net: no commits ran"
for op in ("query", "range", "commit", "count"):
    lat = nrec["latency"][op]
    assert lat["count"] > 0, f"net: no {op} latency samples"
    print(f"   net {op}: {lat['count']} ops, p50 {lat['p50_us']:.1f} us, "
          f"p99 {lat['p99_us']:.1f} us, p999 {lat['p999_us']:.1f} us")
print("   net: equal + consistent ok")
EOF
else
  echo "== python3 not found: skipping JSON validation =="
fi

echo "== bench records written to $OUT_DIR =="
