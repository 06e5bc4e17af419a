#!/usr/bin/env python3
"""The repository benchmark: Datalog fixpoint time plus a wire serve mix.

Run from the repository root:

  python3 perfbench/run.py --workload doop|ec2 --seed N --seconds S --trace 0|1
                           [--out results.jsonl]
  python3 perfbench/run.py selftest
  python3 perfbench/run.py compare OLD.jsonl NEW.jsonl

A run builds the runner (perfbench/CMakeLists.txt: the repository's default
build plus runner.cpp) into $CARGO_TARGET_DIR or .bench_build, runs one seeded
workload, checks every output against an independent oracle, prints each
metric by name with its unit, a provenance line, and as the last line a JSON
object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones (and
writes a span log under the build directory). The exit code is non-zero when
any check failed or the build is instrumented.

--out appends the full record (metrics, sample counts, provenance) as one
JSON line; `compare` reads two such files — e.g. one per commit — and prints,
per workload and metric, the median and quartiles of each side. Moves beyond
the metric's bound in BENCHMARK.json are flagged; a metric whose run-to-run
spread (interquartile range over median) exceeds its bound on either side is
marked unresolved instead.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
MAX_GENERATOR_LAG_MS = 1.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures (once) and builds the runner; returns its path."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise RuntimeError(f"repository sources missing: {need} not found in {ROOT}")
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench_runner", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench_runner")


def run_binary(args_list):
    proc = subprocess.run(args_list, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"runner printed nothing (exit {proc.returncode})")
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise RuntimeError(f"runner output unreadable (exit {proc.returncode}): {lines[-1]!r}")
    return proc.returncode, record


# -- provenance -----------------------------------------------------------------

def git(*cmd):
    try:
        return subprocess.run(["git", "-C", ROOT, *cmd], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_digest():
    """sha256 over the sources the runner is built from (git-independent)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if "__pycache__" in f:
                continue
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(record, seed):
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    build_info = record.get("build", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "avx2": build_info.get("avx2"),
        "compiler": build_info.get("compiler"),
        "flags": build_info.get("flags", "").strip(),
        "build_type": build_info.get("build_type"),
        "git_sha": sha or "unavailable",
        "dirty": (bool(status) if status is not None else None),
        "source_digest": source_digest(),
        "seed": seed,
    }


# -- run ------------------------------------------------------------------------------

def cmd_run(args):
    spec = load_spec()
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        log(f"perfbench: unknown workload {args.workload!r} (have {sorted(names)})")
        return 2
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    runner = build()
    cmd = [runner, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append(f"--trace-out={os.path.join(traces, f'{args.workload}-{args.seed}.json')}")
    code, record = run_binary(cmd)
    if code not in (0, 1):
        log(f"perfbench: runner failed with exit code {code}")
        return code

    metrics = record["metrics"]
    missing = [m["name"] for m in section if m["name"] not in metrics]
    if missing:
        log(f"perfbench: runner did not report {missing}")
        return 2
    prov = provenance(record, args.seed)
    attempted, failed = record["attempted"], record["failed"]
    correct = bool(record["correct"]) and failed == 0 and code == 0

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"wall={record['wall_s']:.1f}s")
    for m in section:
        v = metrics[m["name"]]
        print(f"  {m['name']:<32} {v['value']:>14.6g} {v['unit']:<6} "
              f"(samples: {v['samples']})")
    print(f"  {'error_rate':<32} {failed / max(1, attempted):>14.6g} ratio  "
          f"({failed} of {attempted} checked operations failed)")
    gated = {m["name"] for m in section}
    others = [n for n in metrics if n not in gated]
    if others:
        print("  also measured in this run (not part of this mode's result):")
        for n in others:
            v = metrics[n]
            print(f"    {n:<30} {v['value']:>14.6g} {v['unit']:<6} (samples: {v['samples']})")
    for p in record.get("problems", []):
        print(f"  CHECK FAILED: {p}")
    lag = metrics.get("generator.lag_p99_ms", {}).get("value", 0)
    if lag > MAX_GENERATOR_LAG_MS:
        print(f"  serve latencies invalid: the load generator ran {lag:.2f} ms late at p99 "
              f"(limit {MAX_GENERATOR_LAG_MS} ms), so they measure the host, not the server")
    print("provenance: " + json.dumps(prov, sort_keys=True))

    if args.out:
        full = dict(record, provenance=prov,
                    metrics={m["name"]: metrics[m["name"]] for m in section})
        with open(args.out, "a") as f:
            f.write(json.dumps(full, sort_keys=True) + "\n")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": metrics[m["name"]]["unit"]} for m in section},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def cmd_selftest(_args):
    runner = build()
    return subprocess.run([runner, "--selftest"], timeout=RUN_TIMEOUT_S).returncode


# -- compare ----------------------------------------------------------------------------

def read_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def summarize(values):
    values = sorted(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def cmd_compare(args):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = dict(bounds)
    better.update({m["name"]: m for m in spec["per_layer"]})
    old, new = read_records(args.old), read_records(args.new)
    groups = sorted({(r["workload"], r["trace"]) for r in old + new})
    regressions = 0
    for workload, trace in groups:
        a = [r for r in old if r["workload"] == workload and r["trace"] == trace]
        b = [r for r in new if r["workload"] == workload and r["trace"] == trace]
        print(f"== {workload} ({'per-layer' if trace else 'end-to-end'}): "
              f"{len(a)} old runs, {len(b)} new runs")
        if not a or not b:
            continue
        print(f"  {'metric':<30} {'old median [q1, q3]':>32} {'new median [q1, q3]':>32} "
              f"{'move':>8}  verdict")
        names = [n for n in a[0]["metrics"] if all(n in r["metrics"] for r in a + b)]
        for name in names:
            unit = a[0]["metrics"][name]["unit"]
            om, oq1, oq3, ospread = summarize([r["metrics"][name]["value"] for r in a])
            nm, nq1, nq3, nspread = summarize([r["metrics"][name]["value"] for r in b])
            move = (nm - om) / om if om else 0.0
            verdict = ""
            if name in bounds:
                bound = bounds[name]["bound"]
                worse = move > bound if bounds[name]["better"] == "lower" else move < -bound
                improved = move < -bound if bounds[name]["better"] == "lower" else move > bound
                if max(ospread, nspread) > bound:
                    verdict = f"unresolved (spread {max(ospread, nspread):.1%} > bound {bound:.0%})"
                elif worse:
                    verdict = f"REGRESSION (beyond bound {bound:.0%})"
                    regressions += 1
                elif improved:
                    verdict = f"improved (beyond bound {bound:.0%})"
                else:
                    verdict = "within bound"
            print(f"  {name:<30} {om:>12.5g} [{oq1:.4g}, {oq3:.4g}] {unit:<4}"
                  f" {nm:>12.5g} [{nq1:.4g}, {nq3:.4g}] {move:>+8.1%}  {verdict}")
    return 1 if regressions else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("selftest", "compare"):
        p = argparse.ArgumentParser(prog="run.py " + sys.argv[1])
        if sys.argv[1] == "compare":
            p.add_argument("old")
            p.add_argument("new")
            return cmd_compare(p.parse_args(sys.argv[2:]))
        return cmd_selftest(p.parse_args(sys.argv[2:]))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the full record to this JSON-lines file")
    args = p.parse_args()
    try:
        return cmd_run(args)
    except (RuntimeError, OSError, subprocess.SubprocessError, KeyError, ValueError) as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
