#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see BENCHMARK.json).

Usage, from the repository root:

  python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
      Builds perfbench (release) from source, runs the workload in a fresh
      process, checks every answer, and prints the conditions and every
      metric by name and unit.  The last line is one JSON object with
      `correct`, `attempted`, `failed` and `metrics`: the end-to-end
      metrics of BENCHMARK.json with --trace 0, its per-layer metrics
      with --trace 1.  `all` runs every workload, each in its own process.

  python3 perfbench/run.py --steady [--workload <name|all>] [--runs 10] [--sets 2]
      The steadiness check: runs each workload untraced `runs` times (seeds
      1..runs), `sets` times over, and reports the median and quartiles of
      every end-to-end metric per set.  It flags a metric whose spread
      (interquartile range over median) exceeds its bound, except setup_s,
      and one whose median in a later set is worse than in the first by
      more than its bound.  Exits 1 if anything is flagged.

  python3 perfbench/run.py --self-test
      Unit tests of the benchmark, the op-stream digest check (same seed,
      same digest; another seed, another digest) and a consistency check
      of perfbench/metrics.json against BENCHMARK.json.

Build outputs go to $CARGO_TARGET_DIR (default .bench_build); traces and
scratch data directories go to .bench_out.  Both are inside the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def spec():
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the release binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail("the engine sources (crates/) are not in this checkout", 2)
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    try:
        r = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail(f"build failed with exit code {r.returncode}")
    return os.path.join(target_dir(), "release", "perfbench")


def run_binary(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload in a fresh process; returns (report, printed lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out", OUT_DIR]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish within {RUN_TIMEOUT_S}s")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        if echo:
            print("\n".join(lines))
        fail(f"{workload} seed {seed} exited with code {r.returncode}")
    report = json.loads(lines[-1])
    if echo:
        print("\n".join(lines[:-1]))
    check_conditions(workload, lines)
    return report, lines[:-1]


def check_conditions(workload, lines):
    """The binary's tail percentile must be the one metrics.json records."""
    want = load_json(os.path.join(HERE, "metrics.json"))["tail_percentile"][workload]
    got = [l.rsplit("=", 1)[1].strip() for l in lines
           if l.startswith("condition ") and "tail_percentile" in l]
    if got != [want]:
        fail(f"{workload}: tail percentile {got} differs from metrics.json ({want})")


# Per-kind breakdowns the binary prints besides the BENCHMARK.json metrics.
BREAKDOWNS = ("query_ms.", "read_p50_us.", "op_p50_us.")


def contract_line(report, kind):
    """The JSON object the benchmark contract asks for: the `end_to_end`
    or the `per_layer` metrics of BENCHMARK.json.  A per-layer metric the
    workload does not exercise is 0; an end-to-end one must be measured."""
    s = spec()
    units = {m["name"]: m["unit"] for m in s["end_to_end"] + s["per_layer"]}
    for name, m in report["metrics"].items():
        if name.startswith(BREAKDOWNS):
            continue
        if units.get(name) != m["unit"]:
            fail(f"metric {name} ({m['unit']}) is not in BENCHMARK.json with that unit")
    metrics = {}
    for spec_metric in s[kind]:
        name = spec_metric["name"]
        m = report["metrics"].get(name)
        if m is None and kind == "end_to_end":
            fail(f"metric {name} missing from the run's report")
        value = m["value"] if m else 0
        metrics[name] = {"value": value, "unit": spec_metric["unit"]}
    return {"correct": bool(report["correct"]), "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": metrics}


def workloads(arg):
    names = [w["name"] for w in spec()["workloads"]]
    if arg == "all":
        return names
    if arg not in names:
        fail(f"unknown workload {arg}; choose one of {', '.join(names)} or all", 2)
    return [arg]


def run(args):
    binary = build()
    kind = "per_layer" if args.trace else "end_to_end"
    lines = {}
    for w in workloads(args.workload):
        report, _ = run_binary(binary, w, args.seed, args.seconds, args.trace)
        lines[w] = contract_line(report, kind)
    if len(lines) == 1:
        print(json.dumps(next(iter(lines.values()))))
    else:
        print(json.dumps(lines))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def steady(args):
    binary = build()
    e2e = spec()["end_to_end"]
    # Ungated end-to-end metrics are shown too, but never flagged.
    ungated = load_json(os.path.join(HERE, "metrics.json"))["ungated_end_to_end"]["metrics"]
    flagged = []
    for w in workloads(args.workload):
        sets = []
        for k in range(args.sets):
            values = {}
            for seed in range(1, args.runs + 1):
                report, _ = run_binary(binary, w, seed, args.seconds, False, echo=False)
                shown = [m["name"] for m in e2e] + [n for n in ungated if n in report["metrics"]]
                for name in shown:
                    values.setdefault(name, []).append(report["metrics"][name]["value"])
                print(f"{w} set {k + 1} seed {seed}: " + ", ".join(
                    f"{n}={values[n][-1]:.6g}" for n in shown), flush=True)
            sets.append(values)
        print(f"\n{w}: median [q1, q3] and spread (iqr/median) per set")
        gates = {m["name"]: m for m in e2e}
        for name in sets[0]:
            m = gates.get(name)
            cells = []
            first_med = None
            for k, values in enumerate(sets):
                q1, med, q3 = quartiles(values[name])
                spread = (q3 - q1) / med if med else float("inf")
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] {spread:.3f}")
                if m is None:
                    continue
                bound = m["bound"]
                if name != "setup_s" and spread > bound:
                    flagged.append(f"{w} {name} set {k + 1}: spread {spread:.3f} > bound {bound}")
                if first_med is None:
                    first_med = med
                else:
                    worse = (med - first_med) / first_med
                    if m["better"] == "higher":
                        worse = -worse
                    if worse > bound:
                        flagged.append(f"{w} {name} set {k + 1}: median worse by {worse:.3f} > bound {bound}")
            gate = f"bound {m['bound']}" if m else "not gated"
            print(f"  {name} ({gate}): " + " | ".join(cells))
    if flagged:
        print("\nFLAGGED:\n  " + "\n  ".join(flagged))
        sys.exit(1)
    print("\nsteady: every spread and set-to-set shift is within its bound")


def self_test(_args):
    s = spec()
    meta = load_json(os.path.join(HERE, "metrics.json"))
    mapped = [n for group in meta["layers"] for n in group["metrics"]]
    per_layer = [m["name"] for m in s["per_layer"]]
    if sorted(mapped) != sorted(per_layer):
        fail(f"metrics.json layers {sorted(set(mapped) ^ set(per_layer))} differ from BENCHMARK.json")
    if set(meta["tail_percentile"]) != {w["name"] for w in s["workloads"]}:
        fail("metrics.json tail_percentile must name every workload")
    print("metrics.json agrees with BENCHMARK.json")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    r = subprocess.run(["cargo", "test", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
                       cwd=ROOT, env=env)
    if r.returncode != 0:
        fail("unit tests failed")
    r = subprocess.run([build(), "--self-test"], cwd=ROOT)
    if r.returncode != 0:
        fail("digest self-test failed")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.self_test:
        self_test(args)
    elif args.steady:
        steady(args)
    else:
        run(args)


if __name__ == "__main__":
    main()
