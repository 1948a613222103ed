"""Benchmark for detpowers: cold CLI and library operations, checked verdicts.

Usage, from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload verify-builtin --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --workload structure --seed 1 --self-check
    python3 perfbench/run.py --workload tampered-engines --seed 1 --seconds 5

``tampered-engines`` is a defect probe, not a measured workload: ``all``
leaves it out (README.md).

``--trace 0`` repeats cold passes over the workload's operations while the
next one fits in ``--seconds`` (at least one pass) and reports the
end-to-end metrics. ``--trace 1`` makes one pass with spans at the library
boundary and one pass under the profiler, and reports the per-layer
metrics; the tracing overhead is its ``trace.traced_pass_s`` minus the wall
time of an untraced pass. ``--self-check`` adds an untraced pass, to print
that overhead from one invocation, and a second profiled pass, and exits 1
unless every profiler count repeats exactly. The last line of standard
output is one JSON object; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 3  # fresh-interpreter imports before each pass
# CPU seconds are scaled to the speed at which the gauge reads
# GAUGE_NOMINAL_S, its typical reading on the machine the benchmark was
# sized on, by (GAUGE_NOMINAL_S / the gauge read around the work) **
# SPEED_EXPONENT: the package's code follows the gauge's swings only in part
# (README.md).
GAUGE_NOMINAL_S = 0.075
SPEED_EXPONENT = 0.5
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def scaled(cpu_s: float, gauge_s: float) -> float:
    """CPU seconds at the speed where the gauge reads ``GAUGE_NOMINAL_S``."""
    return cpu_s * (GAUGE_NOMINAL_S / gauge_s) ** SPEED_EXPONENT


def summarize(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond
    it (nearest rank), with the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    high = None
    for q in PERCENTILES:
        rank = max(1, math.ceil(q / 100 * n))
        if n - rank >= 10:
            high = {"percentile": q, "value": ordered[rank - 1]}
            break
    return {"median": statistics.median(ordered), "high": high, "n": n}


def run_pass(ops, order_rng: random.Random, mode: str,
             gauge: "runner.SpeedGauge | None" = None) -> dict:
    """One cold pass over the ops, in a seeded order. With a gauge, each
    record carries ``gauge_s``, the mean of the gauge read just before and
    just after its operation."""
    records = []
    started = time.perf_counter()
    before = gauge.seconds() if gauge else None
    for op in order_rng.sample(ops, len(ops)):
        message = runner.run_cold(op.body, mode)
        after = gauge.seconds() if gauge else None
        error = message.get("error")
        wrong = None
        if not error:
            try:
                wrong = op.check(message["value"])
            except (KeyError, TypeError, IndexError) as exc:
                wrong = f"unreadable report: {exc!r}"
        records.append({"op": op, "message": message, "error": error,
                        "wrong": wrong,
                        "gauge_s": (before + after) / 2 if gauge else None})
        before = after
    return {"wall_s": time.perf_counter() - started, "records": records}


def command_seconds(passes: list[dict]) -> dict[str, list[float]]:
    out = {}
    for command in workloads.COMMANDS:
        per_pass = [sum(r["message"]["wall_s"] for r in p["records"]
                        if r["op"].command == command) for p in passes]
        if any(per_pass):
            out[f"{command}_s"] = per_pass
    return out


def failures(passes: list[dict]) -> tuple[int, int]:
    records = [r for p in passes for r in p["records"]]
    return len(records), sum(1 for r in records if r["error"] or r["wrong"])


def by_op(passes: list[dict]) -> dict[str, list[dict]]:
    """Each op's records over the passes, keyed by label."""
    out: dict[str, list[dict]] = {}
    for p in passes:
        for r in p["records"]:
            out.setdefault(r["op"].label, []).append(r)
    return out


def print_ops(passes: list[dict]) -> None:
    print(f"{'operation':56} {'jobs':>4} {'wall_med':>8} {'wall_min':>8} "
          f"{'cpu_med':>8} {'peak_mb':>8}  verdict")
    for label, records in sorted(by_op(passes).items()):
        walls = [r["message"]["wall_s"] for r in records]
        cpus = [r["message"]["cpu_s"] for r in records]
        rss = max(r["message"]["peak_rss_mb"] for r in records)
        bad = [r["error"] or r["wrong"] for r in records
               if r["error"] or r["wrong"]]
        verdict = "right" if not bad else f"WRONG ({bad[0].splitlines()[-1]})"
        print(f"{label:56} {records[0]['op'].jobs:>4} "
              f"{statistics.median(walls):>8.3f} {min(walls):>8.3f} "
              f"{statistics.median(cpus):>8.3f} {rss:>8.1f}  {verdict}")


def print_metric(name: str, unit: str, values: list[float]) -> None:
    s = summarize(values)
    high = (f"p{s['high']['percentile']:g} {s['high']['value']:.4f}"
            if s["high"] else "p-high n/a (<11 samples)")
    print(f"{name:22} {unit:6} median {s['median']:.4f}  {high}  n={s['n']}")


def measure(name: str, seed: int, seconds: float) -> dict:
    """The untraced run: cold passes until the next one would end after
    ``seconds``, with set-up samples before each. Prints the table for
    people and returns the result object.

    ``pass_cpu_s`` sums each operation's median CPU seconds over the passes
    (user plus system, of the operation's process and the workers it waited
    for), not wall seconds: on a shared virtual machine wall time also holds
    the time other guests hold the cores. The cores' own speed drifts too,
    so each operation's CPU seconds are first scaled by the speed gauge
    read around it. ``setup_s`` is the median CPU seconds of the imports,
    each scaled by the gauge read just after it. README.md gives the
    measurements behind these choices. Wall and unscaled times are printed
    beside them.
    """
    ops = workloads.ALL[name](seed)
    order_rng = random.Random(seed)
    started = time.perf_counter()
    runner.import_seconds(SRC)  # writes the bytecode cache; not a sample
    setup, passes = [], []
    with runner.SpeedGauge() as gauge:
        while not passes or (time.perf_counter() + passes[-1]["wall_s"]
                             <= started + seconds):
            for _ in range(SETUP_SAMPLES):
                wall, cpu = runner.import_seconds(SRC)
                setup.append({"wall_s": wall, "cpu_s": cpu,
                              "gauge_s": gauge.seconds()})
            passes.append(run_pass(ops, order_rng, "plain", gauge))
    attempted, failed = failures(passes)
    peak = [max(r["message"]["peak_rss_mb"] for r in p["records"])
            for p in passes]
    per_op = by_op(passes).values()
    unscaled = sum(statistics.median(r["message"]["cpu_s"] for r in records)
                   for records in per_op)
    metrics = {
        "pass_cpu_s": (sum(statistics.median(scaled(r["message"]["cpu_s"],
                                                    r["gauge_s"])
                                             for r in records)
                           for records in per_op), "s"),
        "setup_s": (statistics.median(scaled(x["cpu_s"], x["gauge_s"])
                                      for x in setup), "s"),
        "peak_rss_mb": (statistics.median(peak), "MB"),
    }
    print(f"== workload {name}, seed {seed}, {len(passes)} pass(es), "
          f"closed loop of one client")
    print_ops(passes)
    print_metric("setup wall", "s", [x["wall_s"] for x in setup])
    print_metric("setup cpu", "s", [x["cpu_s"] for x in setup])
    print_metric("pass wall", "s",
                 [sum(r["message"]["wall_s"] for r in p["records"])
                  for p in passes])
    print_metric("pass cpu", "s",
                 [sum(r["message"]["cpu_s"] for r in p["records"])
                  for p in passes])
    print_metric("peak_rss_mb", "MB", peak)
    for metric, values in command_seconds(passes).items():
        print_metric(f"{metric} wall", "s", values)
    print(f"{'failed_ratio':22} {failed}/{attempted} = "
          f"{failed / attempted:.4f}")
    print_metric("speed gauge", "s",
                 [r["gauge_s"] for p in passes for r in p["records"]]
                 + [x["gauge_s"] for x in setup])
    print(f"unscaled: pass_cpu_s {unscaled:.4f} s, setup_s "
          f"{statistics.median(x['cpu_s'] for x in setup):.4f} s")
    for metric, (value, unit) in metrics.items():
        print(f"{metric:22} {unit:6} reported {value:.4f}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }


def trace(name: str, seed: int, self_check: bool) -> tuple[dict, bool]:
    """The traced run: one pass with spans, one under the profiler. With
    ``self_check`` also one untraced pass, to report the tracing overhead,
    and a second profiled pass; the second return value says whether every
    profiler count repeated (always true without ``self_check``)."""
    ops = workloads.ALL[name](seed)
    order_rng = random.Random(seed)
    passes = [run_pass(ops, order_rng, "spans"),
              run_pass(ops, order_rng, "profile")]
    repeated = True
    if self_check:
        passes += [run_pass(ops, order_rng, "profile"),
                   run_pass(ops, order_rng, "plain")]
        first, second = (
            {r["op"].label: r["message"].get("profile", {}).get("calls")
             for r in p["records"]} for p in passes[1:3])
        repeated = first == second
        print(f"self-check: profiler counts "
              f"{'repeat exactly' if repeated else 'DIFFER'} between two "
              f"profiled passes of {len(ops)} ops")
        print(f"self-check: tracing overhead {passes[0]['wall_s']:.3f} s "
              f"traced - {passes[3]['wall_s']:.3f} s untraced = "
              f"{passes[0]['wall_s'] - passes[3]['wall_s']:+.3f} s")
    metrics = tracing.layer_metrics(passes[0], passes[1])
    print(f"== traced workload {name}, seed {seed}")
    for metric, entry in metrics.items():
        print(f"{metric:36} {entry['unit']:11} {entry['value']:.6g}")
    attempted, failed = failures(passes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, repeated


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    if any(name not in workloads.ALL for name in names):
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.ALL)} or all")
    machine = runner.machine_info()
    print("machine: " + json.dumps(machine, sort_keys=True))
    print(f"seed: {args.seed}")
    results, ok = {}, True
    for name in names:
        if args.trace or args.self_check:
            results[name], repeated = trace(name, args.seed, args.self_check)
            ok = ok and repeated
        else:
            results[name] = measure(name, args.seed, args.seconds)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({"seed": args.seed, "machine": machine,
                          "workloads": results}))
    return 0 if ok else 1


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "detpowers", "__init__.py")):
        print(f"error: no detpowers package under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import runner  # noqa: E402  (needs the package path above)
    import tracing  # noqa: E402
    import workloads  # noqa: E402
    sys.exit(main())
