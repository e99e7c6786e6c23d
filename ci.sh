#!/usr/bin/env bash
# CI gate for the Prodigy reproduction. Runs entirely offline: the only
# third-party crates (proptest/criterion) are vendored shims under
# vendor/, path-resolved through the workspace, so no registry or network
# access is required.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

# A doc link to a renamed, deleted or private item is a rustdoc warning.
echo "== rustdoc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== tier-1: release build + tests"
cargo build --release
cargo test -q

# The hybrid root manifest means a plain root build compiles member *libs*
# only; build the bench package explicitly so every smoke below runs
# against fresh release binaries, never stale ones.
echo "== release binaries (prodigy-eval, prodigy-diff)"
cargo build --release -p prodigy-bench

echo "== workspace tests"
cargo test -q --workspace

# Every sweep gets a generous per-cell timeout: a diverging cell must fail
# its run (exit 3) instead of hanging CI forever.
timeout="--timeout-secs 600"

# Gated: every experiment's table, serial and parallel, is byte-identical
# to the checked-in golden (the canonical-form gates below cover fig02's
# cells only).
echo "== tables gate: every experiment at 1 and 2 threads vs BENCH_tables_scale64.txt"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
for threads in 1 2; do
    ./target/release/prodigy-eval --scale 64 --threads "$threads" $timeout \
        --out "$tmp/tables$threads.txt" >/dev/null
    if ! cmp BENCH_tables_scale64.txt "$tmp/tables$threads.txt"; then
        diff BENCH_tables_scale64.txt "$tmp/tables$threads.txt" | head -40 || true
        echo "   --threads $threads tables drifted from BENCH_tables_scale64.txt."
        echo "   If the change is intentional, regenerate it with:"
        echo "   ./target/release/prodigy-eval --scale 64 --threads 2 --timeout-secs 600 --out BENCH_tables_scale64.txt"
        exit 1
    fi
done
echo "   byte-identical at --threads 1 and 2: OK"

# Gated: the design_space example's sweep is byte-identical to its golden.
# It is the only caller of `range_window` and the only run of non-default
# trigger specs (look-ahead, sequences per trigger) through run_workload.
echo "== design_space gate: example output vs BENCH_design_space.txt"
cargo run --release --offline --example design_space >"$tmp/design_space.txt"
if ! cmp BENCH_design_space.txt "$tmp/design_space.txt"; then
    diff BENCH_design_space.txt "$tmp/design_space.txt" || true
    echo "   design_space output drifted from BENCH_design_space.txt."
    echo "   If the change is intentional, regenerate it with:"
    echo "   cargo run --release --offline --example design_space >BENCH_design_space.txt"
    exit 1
fi
echo "   byte-identical to BENCH_design_space.txt: OK"

# Gated: every malformed flag set is a usage error (exit 2, a message on
# stderr), never a panic, a sweep of failed cells, or a run that ignores it.
# stderr goes to a file: piped into `head`, the closed pipe would make
# `eprintln!` itself panic.
echo "== bad flags: each exits 2 without a panic"
bad_flags=(
    "--scale 64 --cores 0 fig02"
    "--scale 8 --cores 100 fig02"
    "--scale 64 --cores 65 fig02"
    "--scale 0 fig02"
    "--threads 0"
    "--shard 0/2"
    "--shard 3/2"
    "--shard x"
    "--metrics-window 0"
    "--timeout-secs x"
    "--scale 64 --host-profile storage"
    "--trace $tmp/t.json --trace-events bogus"
    "--trace $tmp/t.json --trace-workload nosuch"
    "--shard 1/2 --trace $tmp/t.json"
    "nosuchexperiment"
)
for flags in "${bad_flags[@]}"; do
    rc=0
    # shellcheck disable=SC2086 # each row is a list of words
    ./target/release/prodigy-eval $flags >/dev/null 2>"$tmp/badflag.err" || rc=$?
    if [ "$rc" -ne 2 ] || grep -q panicked "$tmp/badflag.err"; then
        echo "   prodigy-eval $flags: want exit 2 and no panic, got exit $rc"
        head -5 "$tmp/badflag.err"
        exit 1
    fi
done
echo "   ${#bad_flags[@]} bad flag sets exit 2, none panicked: OK"

echo "== trace smoke: Chrome trace JSON validity + determinism"
./target/release/prodigy-eval --scale 64 --cores 2 \
    --trace "$tmp/trace1.json" >/dev/null
./target/release/prodigy-eval --scale 64 --cores 2 \
    --trace "$tmp/trace2.json" >/dev/null
cmp "$tmp/trace1.json" "$tmp/trace2.json"
python3 - "$tmp/trace1.json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
evs = d["traceEvents"]
cats = {e["cat"] for e in evs}
assert len(cats) >= 4, f"want >= 4 event categories, got {sorted(cats)}"
ts = [e["ts"] for e in evs]
assert all(a <= b for a, b in zip(ts, ts[1:])), "timestamps must be non-decreasing"
print(f"   {len(evs)} events, categories {sorted(cats)}: OK")
PY

echo "== diff smoke: same-seed scale-1 sweep pair must be identical"
./target/release/prodigy-eval --scale 1 --threads 2 $timeout \
    --json "$tmp/d1.json" fig02 >/dev/null
./target/release/prodigy-eval --scale 1 --threads 2 $timeout \
    --json "$tmp/d2.json" fig02 >/dev/null
# The canonical form of a sweep report (`--merge`) holds every simulated
# value of every cell and no host field, so two runs that computed the same
# results canonicalize to identical bytes. Each identity gate below is a
# `cmp` of canonical forms; the prodigy-diff calls beside them are for the
# log (they name the metric that moved when a gate fails).
canon() { ./target/release/prodigy-eval --merge "$1" --out "$2"; }
canon "$tmp/d1.json" "$tmp/d1c.json"
canon "$tmp/d2.json" "$tmp/d2c.json"
./target/release/prodigy-diff "$tmp/d1.json" "$tmp/d2.json"
cmp "$tmp/d1c.json" "$tmp/d2c.json"
echo "   same-seed canonical forms byte-identical: OK"
# Gated: each prefetch fate is credited to one source, the one stored with
# the cache copy the fate names, so in every cell each attribution
# category sums to the global Fig. 19 count and the issued column to the
# issue count.
python3 - "$tmp/d1.json" <<'PY'
import json, sys
cells = json.load(open(sys.argv[1]))["cells"]
for c in cells:
    t = c["telemetry"]
    want = dict(t["timeliness"], issued=c["summary"]["stats"]["prefetches_issued"])
    got = {k: sum(row[k] for row in t["attribution"]) for k in want}
    assert got == want, f"{c['key']}: attribution rows sum to {got}, want {want}"
    # Every cell classifies each LLC miss as inside or outside the DIG's
    # structures, never both or neither.
    s = c["summary"]["stats"]
    assert s["llc_misses_prefetchable"] + s["llc_misses_other"] == s["l3"]["misses"], (
        f"{c['key']}: classified LLC misses do not add up to l3.misses")
print(f"   {len(cells)} cells: attribution rows sum to the global fates and issues, "
      f"classified LLC misses to l3.misses: OK")
PY
# Gated: the live run reproduces the checked-in baseline exactly.
if ! cmp BENCH_pr8_scale1.json "$tmp/d1c.json"; then
    ./target/release/prodigy-diff BENCH_pr8_scale1.json "$tmp/d1.json" || true
    echo "   results drifted from the checked-in BENCH_pr8_scale1.json baseline."
    echo "   If the change is intentional, regenerate it with:"
    echo "   ./target/release/prodigy-eval --scale 1 --threads 2 --json fig02.json fig02"
    echo "   ./target/release/prodigy-eval --merge fig02.json --out BENCH_pr8_scale1.json"
    exit 1
fi
echo "   canonical run byte-identical to BENCH_pr8_scale1.json: OK"
# Non-gating host-throughput summary (varies run to run; for the log only).
python3 - "$tmp/d1.json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
h = d.get("host", {})
print(f"   host (non-gating): {h.get('cells_per_sec', '?')} cells/s, "
      f"{h.get('host_nanos_total', 0)/1e9:.1f}s total cell time, "
      f"p50 {h.get('cell_host_nanos_p50', 0)/1e9:.1f}s / "
      f"p99 {h.get('cell_host_nanos_p99', 0)/1e9:.1f}s per cell")
PY

echo "== slo smoke: satisfied/violated/malformed exit 0/1/2"
./target/release/prodigy-diff "$tmp/d1.json" \
    --slo 'load_to_use_max<=18446744073709551615' >/dev/null
set +e
./target/release/prodigy-diff "$tmp/d1.json" --slo 'load_to_use_p50<=0' >/dev/null
rc_violated=$?
./target/release/prodigy-diff "$tmp/d1.json" --slo 'bogus<=5' >/dev/null 2>&1
rc_malformed=$?
set -e
[ "$rc_violated" -eq 1 ] || { echo "   SLO violation: want exit 1, got $rc_violated"; exit 1; }
[ "$rc_malformed" -eq 2 ] || { echo "   malformed SLO: want exit 2, got $rc_malformed"; exit 1; }
echo "   exit codes 0/1/2: OK"

echo "== far-memory smoke: farmem grid, per-tier rows, SLO gate"
./target/release/prodigy-eval --scale 64 --threads 2 $timeout \
    --json "$tmp/far.json" farmem >/dev/null
# Gated: the far-tier p99 load-to-use tail stays under budget across the
# whole grid (up to 8x remote latency); single-tier cells would be n/a.
./target/release/prodigy-diff "$tmp/far.json" \
    --slo 'far_load_to_use_p99<=65536' --slo 'near_load_to_use_p99<=16384' | tee "$tmp/far.slo"
# Gated: the far-tier SLO reads every one of the 80 cells; none is n/a.
grep -q "^slo far_load_to_use_p99<=65536: OK — 80 cells checked, 0 n/a," "$tmp/far.slo" ||
    { echo "   far_load_to_use_p99: want 80 cells checked, 0 n/a"; exit 1; }
# Gated: every farmem cell is two-tier — |farN key suffix, a tiers
# telemetry split with near and far load-to-use samples and real far-tier
# traffic.
python3 - "$tmp/far.json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
cells = d["cells"]
assert cells, "farmem sweep produced no cells"
scales = set()
for c in cells:
    key = c["key"]
    assert "|far" in key, f"farmem cell {key} lacks a |farN key suffix"
    scales.add(key.rsplit("|far", 1)[1])
    t = c["telemetry"]["tiers"]
    assert t["near"]["load_to_use"]["count"] > 0 and t["far"]["load_to_use"]["count"] > 0, key
    assert t["far"]["demand_reads"] + t["far"]["prefetch_reads"] > 0, (
        f"{key}: no far-tier traffic despite cold placement")
assert scales == {"1", "2", "4", "8"}, scales
print(f"   {len(cells)} two-tier cells, far scales {sorted(scales, key=int)}: OK")
PY

echo "== shard-merge + cell-cache smoke: fig02 as 2 shards, shared disk cache"
cache="$tmp/cellcache"
cold_ns=$(date +%s%N)
./target/release/prodigy-eval --scale 1 --threads 2 $timeout \
    --cell-cache "$cache" --shard 1/2 --json "$tmp/s1.json" fig02 >/dev/null
./target/release/prodigy-eval --scale 1 --threads 2 $timeout \
    --cell-cache "$cache" --shard 2/2 --json "$tmp/s2.json" fig02 >/dev/null
cold_ns=$(( $(date +%s%N) - cold_ns ))
# Gated: merging the two shard reports is byte-identical to the
# canonicalized unsharded same-seed run and to the checked-in baseline
# (shards + merge must not perturb any simulated counter).
# Gated: a shard's utilization is never negative, not even -0 from a
# shard that owns no cell (keys carry no scale: all 4 of fig02's cells
# hash to shard 1/2, so shard 2/2 owns none).
python3 - "$tmp/s1.json" "$tmp/s2.json" <<'PY'
import json, math, sys
reports = [json.load(open(path)) for path in sys.argv[1:]]
assert reports[1]["cells"] == [], "shard 2/2 must own no fig02 cell"
for path, r in zip(sys.argv[1:], reports):
    u = r["host"]["utilization"]
    assert math.copysign(1.0, u) > 0, f"{path}: utilization {u} is negative"
print("   shard 2/2 empty, shard utilizations non-negative: OK")
PY
./target/release/prodigy-eval --merge "$tmp/s1.json" "$tmp/s2.json" --out "$tmp/merged.json"
./target/release/prodigy-diff "$tmp/d1.json" "$tmp/merged.json"
cmp "$tmp/merged.json" "$tmp/d1c.json"
./target/release/prodigy-diff BENCH_pr8_scale1.json "$tmp/merged.json"
cmp BENCH_pr8_scale1.json "$tmp/merged.json"
echo "   merged shards byte-identical to the canonicalized unsharded run: OK"
# Warm-cache pass: every fig02 cell loads from the shards' shared disk
# cache — zero cells simulated, and much faster than the cold shards.
warm_ns=$(date +%s%N)
./target/release/prodigy-eval --scale 1 --threads 2 $timeout \
    --cell-cache "$cache" --json "$tmp/warm.json" fig02 >/dev/null
warm_ns=$(( $(date +%s%N) - warm_ns ))
./target/release/prodigy-diff "$tmp/d1.json" "$tmp/warm.json"
canon "$tmp/warm.json" "$tmp/warmc.json"
cmp "$tmp/d1c.json" "$tmp/warmc.json"
python3 - "$tmp/warm.json" "$cold_ns" "$warm_ns" <<'PY'
import json, sys
h = json.load(open(sys.argv[1]))["host"]
assert h["cells_simulated"] == 0, f"warm cache simulated {h['cells_simulated']} cells"
assert h["disk_hits"] == 4, f"expected 4 disk hits, got {h['disk_hits']}"
assert h["threads_leaked"] == 0
cold, warm = int(sys.argv[2]), int(sys.argv[3])
speedup = cold / max(warm, 1)
assert speedup >= 10, f"warm pass only {speedup:.1f}x faster than cold shards"
print(f"   warm pass: 0 simulated, 4 disk hits, {speedup:.0f}x faster: OK")
PY

# Gated: every simulated result is a registry cell. The four experiments
# whose runs once bypassed the registry (swpf, limits_tc, ext_dobfs,
# ext_throttle) report all 12 of their cells, and a warm cache re-renders
# their tables with nothing simulated.
echo "== cell-cache smoke: swpf, limits_tc, ext_dobfs, ext_throttle cold then warm"
four=(swpf limits_tc ext_dobfs ext_throttle)
for pass in cold warm; do
    ./target/release/prodigy-eval --scale 64 --threads 2 $timeout \
        --cell-cache "$tmp/cellcache4" --out "$tmp/four-$pass.txt" \
        --json "$tmp/four-$pass.json" "${four[@]}" >/dev/null
done
cmp "$tmp/four-cold.txt" "$tmp/four-warm.txt"
python3 - "$tmp/four-cold.json" "$tmp/four-warm.json" <<'PY'
import json, sys
cold, warm = (json.load(open(p)) for p in sys.argv[1:])
keys = {c["key"] for c in cold["cells"]}
assert len(cold["cells"]) == len(keys) == 12, (
    f"cold run reported {len(cold['cells'])} cells with {len(keys)} keys, want 12")
h = warm["host"]
assert h["cells_simulated"] == 0, f"warm cache simulated {h['cells_simulated']} cells"
assert h["disk_hits"] == 12, f"expected 12 disk hits, got {h['disk_hits']}"
print("   12 cells; warm pass: 0 simulated, 12 disk hits, identical tables: OK")
PY

# Gated: a cell runs at most once per process, whatever its outcome. With a
# zero budget every cell times out; fig02, fig04 and fig14 hold 60 distinct
# cells, and the pool's jobs (its attempts) must number exactly 60 (a memo
# that evicted timeouts made 94 attempts here). A failed cell is not a
# simulated one, its time-to-timeout is not simulation time, and a
# cancelled cell unwinds without a panic report.
echo "== timeout probe: every cell fails once, exit 3"
rc=0
./target/release/prodigy-eval --scale 64 --threads 2 --timeout-secs 0 \
    --json "$tmp/probe.json" fig02 fig04 fig14 >/dev/null 2>"$tmp/probe.err" || rc=$?
[ "$rc" -eq 3 ] || { echo "   want exit 3, got $rc"; head -5 "$tmp/probe.err"; exit 1; }
if grep -q "run cancelled" "$tmp/probe.err"; then
    echo "   cancelled cells printed panic reports:"
    grep -m 3 -B 1 "run cancelled" "$tmp/probe.err"
    exit 1
fi
python3 - "$tmp/probe.json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
keys = {c["key"] for c in d["cells"]}
jobs = sum(w["jobs"] for w in d["workers"])
assert jobs == len(keys) == 60, f"{jobs} attempts for {len(keys)} keys, want 60 for 60"
assert all(c["error"] for c in d["cells"]), "every cell must fail under a zero budget"
h = d["host"]
assert h["cells_simulated"] == 0, f"{h['cells_simulated']} cells simulated, want 0: none finished"
assert h["host_nanos_total"] == 0 and h["cell_host_nanos_p99"] == 0, (
    f"host time {h['host_nanos_total']} ns, p99 {h['cell_host_nanos_p99']} ns, want 0: nothing simulated")
print("   60 attempts for 60 keys, all failed, 0 simulated, 0 ns host time, no panic reports: OK")
PY

echo "== metrics smoke: windowed series + attribution, same-seed identical"
./target/release/prodigy-eval --scale 64 --cores 2 \
    --metrics "$tmp/me1.json" --metrics-window 5000 >/dev/null
./target/release/prodigy-eval --scale 64 --cores 2 \
    --metrics "$tmp/me2.json" --metrics-window 5000 >/dev/null
cmp "$tmp/me1.json" "$tmp/me2.json"
./target/release/prodigy-diff "$tmp/me1.json" "$tmp/me2.json"
python3 - "$tmp/me1.json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["windows_closed"] >= 1 and len(d["samples"]) == d["windows_closed"]
assert all("ipc" in s and "throttle_level" in s for s in d["samples"])
assert d["attribution"], "Prodigy run must attribute prefetches to DIG nodes"
assert any("->" in a["label"] for a in d["attribution"]), "edge tags expected"
# Occupancy gauge: every closed window carries a per-source occupancy
# snapshot whose buckets (demand + untagged + tagged sources) sum to the
# level's resident-line total.
for s in d["samples"]:
    occ = s.get("occupancy")
    assert occ, "window sample lacks an occupancy snapshot"
    for lvl in ("l1", "l2", "l3"):
        o = occ[lvl]
        total = o["demand"] + o["untagged"] + sum(e["lines"] for e in o["sources"])
        assert total == o["total"], f"{lvl}: buckets {total} != total {o['total']}"
print(f"   {len(d['samples'])} windows, {len(d['attribution'])} sources, occupancy sums: OK")
PY

echo "== pollution smoke: provenance columns, occupancy payload, scalar SLO gate"
./target/release/prodigy-eval --scale 64 --threads 2 $timeout \
    --out "$tmp/pol.txt" --json "$tmp/pol.json" pollution >/dev/null
grep -q "pollution" "$tmp/pol.txt"
# Gated end-to-end: the scalar SLO path parses, evaluates and passes on a
# real report (generous bounds — a rate is a fraction of LLC demand
# misses; an occupancy share is a fraction of resident lines).
./target/release/prodigy-diff "$tmp/pol.json" \
    --slo 'pollution_rate<=1' --slo 'l3_top_source_occupancy<=1' | tee "$tmp/pol.slo"
# Gated: the 35 prefetching cells report a pollution rate; the 5 `none`
# cells issued no prefetch, so theirs is n/a, never 0.
grep -q "^slo pollution_rate<=1: OK — 35 cells checked, 5 n/a," "$tmp/pol.slo" ||
    { echo "   pollution_rate: want 35 cells checked, 5 n/a"; exit 1; }
# Gated: exceeding a scalar bound must exit 1 like the quantile SLOs.
set +e
./target/release/prodigy-diff "$tmp/pol.json" --slo 'l3_prefetch_occupancy<=0' >/dev/null
rc_scalar=$?
set -e
[ "$rc_scalar" -eq 1 ] || { echo "   scalar SLO violation: want exit 1, got $rc_scalar"; exit 1; }
python3 - "$tmp/pol.json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
cells = d["cells"]
assert cells, "pollution sweep produced no cells"
for c in cells:
    t = c["telemetry"]
    assert "pollution" in t and set(t["pollution"]) == {"l1", "l2", "l3"}, c["key"]
    occ = t.get("occupancy")
    assert occ, f"{c['key']}: missing final occupancy snapshot"
    for lvl in ("l1", "l2", "l3"):
        o = occ[lvl]
        total = o["demand"] + o["untagged"] + sum(e["lines"] for e in o["sources"])
        assert total == o["total"], f"{c['key']} {lvl}: buckets don't sum"
print(f"   {len(cells)} cells, pollution counts and occupancy sums: OK")
PY

# perfbench (the repository's benchmark) is a cargo workspace of its own
# that builds against crates/ by path, so nothing above compiles it: a
# public-API change could break the benchmark unnoticed.
# Gated: is's peak RSS stays under 100 MiB. The peak is set by the ranking
# phase's instruction streams, so this is a tripwire for a stream encoding
# that grows per instruction again (~121 MiB with 7-byte records, ~71 MiB
# with dictionary-coded ones).
echo "== perfbench: build, tests, one-pass is smoke, peak RSS tripwire"
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline --manifest-path perfbench/Cargo.toml
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload is --seconds 0 --trace 0 >"$tmp/perfbench.txt"
python3 - "$tmp/perfbench.txt" <<'PY'
import json, sys
last = open(sys.argv[1]).read().strip().splitlines()[-1]
d = json.loads(last)
assert d["correct"] is True, f"perfbench is: not correct: {last}"
assert d["failed"] == 0, f"perfbench is: {d['failed']} failed cells"
rss = d["metrics"]["peak_rss_mib"]["value"]
assert rss <= 100, f"perfbench is: peak rss {rss:.1f} MiB > 100 MiB"
print(f"   perfbench is: {d['attempted']} cells run, 0 failed, "
      f"peak rss {rss:.0f} MiB (<= 100): OK")
PY

# pr-lj runs the PageRank and GHB G/DC code the is smoke does not, under
# PageRank's bit-for-bit reference and every cell's functional checksum.
# Gated: its peak RSS stays under 200 MiB, a tripwire for a GHB delta-pair
# index whose per-pair cost grows again (~246 MiB with HashMap buckets,
# ~130 MiB with the packed table).
echo "== perfbench: one-pass pr-lj smoke, peak RSS tripwire"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload pr-lj --seconds 0 --trace 0 >"$tmp/perfbench-pr.txt"
python3 - "$tmp/perfbench-pr.txt" <<'PY'
import json, sys
last = open(sys.argv[1]).read().strip().splitlines()[-1]
d = json.loads(last)
assert d["correct"] is True, f"perfbench pr-lj: not correct: {last}"
assert d["failed"] == 0, f"perfbench pr-lj: {d['failed']} failed cells"
rss = d["metrics"]["peak_rss_mib"]["value"]
assert rss <= 200, f"perfbench pr-lj: peak rss {rss:.1f} MiB > 200 MiB"
print(f"   perfbench pr-lj: {d['attempted']} cells run, 0 failed, "
      f"peak rss {rss:.0f} MiB (<= 200): OK")
PY

# nopf runs bfs, sssp and spmv with no prefetcher, each under its kernel's
# reference check. Gated: its peak RSS stays under 90 MiB, a tripwire for
# instruction streams that store loop-grown deps per instruction again. The
# peak is set while spmv's single 8.5M-instruction phase is built (~100 MiB
# when each edge load's deps take 4 bytes, ~81 MiB with predicted deps).
echo "== perfbench: one-pass nopf smoke, peak RSS tripwire"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload nopf --seconds 0 --trace 0 >"$tmp/perfbench-nopf.txt"
python3 - "$tmp/perfbench-nopf.txt" <<'PY'
import json, sys
last = open(sys.argv[1]).read().strip().splitlines()[-1]
d = json.loads(last)
assert d["correct"] is True, f"perfbench nopf: not correct: {last}"
assert d["failed"] == 0, f"perfbench nopf: {d['failed']} failed cells"
rss = d["metrics"]["peak_rss_mib"]["value"]
assert rss <= 90, f"perfbench nopf: peak rss {rss:.1f} MiB > 90 MiB"
print(f"   perfbench nopf: {d['attempted']} cells run, 0 failed, "
      f"peak rss {rss:.0f} MiB (<= 90): OK")
PY

# The per-layer ledger: the traced pass times kernel, system, prefetcher and
# hierarchy from outside through public calls. Gated: it fails any cell whose
# traced run's stats, telemetry, checksum or Prodigy counters differ from
# run_workload's (measuring must not perturb the simulation), and every
# layer it names must have measured time. trace.overhead is for the log.
echo "== perfbench: traced is pass, per-layer ledger"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload is --seconds 0 --trace 1 >"$tmp/perfbench-trace.txt"
python3 - "$tmp/perfbench-trace.txt" <<'PY'
import json, sys
last = open(sys.argv[1]).read().strip().splitlines()[-1]
d = json.loads(last)
assert d["correct"] is True, f"perfbench is --trace 1: not correct: {last}"
assert d["failed"] == 0, f"perfbench is --trace 1: {d['failed']} failed cells"
m = {k: v["value"] for k, v in d["metrics"].items()}
for k in ("kernels.self_s", "system.self_s", "prefetcher.self_s", "hierarchy.ns_per_access"):
    assert m[k] > 0, f"perfbench is --trace 1: {k} = {m[k]}, want > 0"
print(f"   perfbench is --trace 1: {d['attempted']} cells traced, 0 failed; kernels "
      f"{m['kernels.self_s']:.2f}s, system {m['system.self_s']:.2f}s, prefetcher "
      f"{m['prefetcher.self_s']:.2f}s, hierarchy {m['hierarchy.ns_per_access']:.0f} ns/access; "
      f"trace.overhead {m['trace.overhead']:.2f}x (non-gating): OK")
PY

echo "CI green."
