#!/usr/bin/env python3
"""The repository benchmark: one command for the whole pipeline.

Runs one named workload through the public API (``repro.api.Session``,
``repro.serve.ServerThread`` + ``request_run``), checks every output
against the digests recorded in ``perfbench/digests.json``, prints a
human-readable report and, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
timed by wrappers around each layer's public functions (``layers.py``).

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep_store --seed 3 --seconds 20
    python3 perfbench/run.py --workload serve_mix --seed 3 --trace 1
    python3 perfbench/run.py --record-digests [--workload NAME]

Every store, server directory and temp file lives under
``.perfbench/tmp-<pid>/`` and is removed at exit; each run appends one
provenance-stamped record to ``.perfbench/records.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_REPEATS = 5


def fail(message: str) -> None:
    """Exit non-zero without printing a result line."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> Dict[str, Any]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail(f"missing {path}")
    with open(path) as handle:
        return json.load(handle)


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile (``statistics`` inclusive method)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# -- provenance --------------------------------------------------------


def git_sha() -> Optional[str]:
    """HEAD of the checkout's own ``.git``, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over every ``src/**/*.py`` path and its bytes."""
    sha = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                sha.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    sha.update(handle.read())
    return sha.hexdigest()


def provenance(args: argparse.Namespace, input_class: int) -> Dict[str, Any]:
    import numpy

    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "workload": args.workload,
        "seed": args.seed,
        "input_class": input_class,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "unix_time": round(time.time(), 3),
    }


# -- measurement -------------------------------------------------------


def measure(scenario, seconds: float, timer=None
            ) -> Tuple[List[Tuple[float, Any, Optional[dict]]], int]:
    """Run operations for up to ``seconds``; check each.

    At least one operation runs; another starts only while the median
    operation so far still fits before the deadline, so every workload
    measures about ``seconds`` without overrunning by a whole long
    operation.  Returns ``([(op seconds, OpResult, layer delta or
    None)], failed)``.
    """
    ops = []
    failed = 0
    start = time.perf_counter()
    while True:
        before = timer.snapshot() if timer is not None else None
        began = time.perf_counter()
        result = scenario.op()
        elapsed = time.perf_counter() - began
        delta = (layer_delta(before, timer.snapshot())
                 if timer is not None else None)
        failed += result.failed + scenario.check(result)
        ops.append((elapsed, result, delta))
        typical = statistics.median(op[0] for op in ops)
        if time.perf_counter() - start + typical > seconds:
            break
    return ops, failed


def layer_delta(before: dict, after: dict) -> dict:
    """What one operation added to a :class:`LayerTimer` snapshot."""
    delta: Dict[str, Any] = {}
    for key, value in after.items():
        if isinstance(value, dict):
            delta[key] = {name: amount - before[key].get(name, 0)
                          for name, amount in value.items()}
        elif isinstance(value, list):
            delta[key] = value[len(before[key]):]
        else:
            delta[key] = value - before[key]
    return delta


def end_to_end(ops, setup_times: List[float]) -> Dict[str, float]:
    """The end-to-end metrics of one measured phase."""
    seconds = [elapsed for elapsed, _, _ in ops]
    total = sum(seconds)
    latencies: List[float] = []
    for elapsed, result, _ in ops:
        latencies.extend(result.latencies or [elapsed])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup_times),
        "op_s": statistics.median(seconds),
        "points_per_s": sum(result.points for _, result, _ in ops) / total,
        "requests_per_s": len(latencies) / total,
        "latency_p50_ms": 1000 * quantile(latencies, 0.50),
        "latency_p95_ms": 1000 * quantile(latencies, 0.95),
        "peak_rss_mb": peak_kb / 1024,
    }


def per_layer(scenario, traced, untraced, names: List[str]
              ) -> Dict[str, float]:
    """Every per-layer metric; layers the workload skips read 0.

    A layer's ``*_s`` figure is the median over traced operations of its
    self seconds; its ``share`` is the median of self seconds divided by
    the operation's wall seconds.
    """
    metrics = {name: 0.0 for name in names}
    op_median = statistics.median(elapsed for elapsed, _, _ in traced)
    untraced_median = statistics.median(e for e, _, _ in untraced)

    def self_seconds(layer: str) -> float:
        return statistics.median(delta["self_s"].get(layer, 0.0)
                                 for _, _, delta in traced)

    def share(layer: str) -> float:
        return statistics.median(delta["self_s"].get(layer, 0.0) / elapsed
                                 for elapsed, _, delta in traced)

    metrics["workloads.trace_s"] = self_seconds("workloads")
    metrics["workloads.share"] = share("workloads")
    metrics["profiler.profile_s"] = self_seconds("profiler")
    metrics["profiler.share"] = share("profiler")
    metrics["profile_store.warm_s"] = self_seconds("profile_store")
    metrics["core.share"] = share("core")
    metrics["simulator.simulate_s"] = self_seconds("simulator")
    metrics["simulator.share"] = share("simulator")

    core_s: Dict[str, float] = {}
    core_points: Dict[str, int] = {}
    firsts, runs, gets, puts, hits = [], [], [], [], 0
    for _, _, delta in traced:
        for name, value in delta["core_s"].items():
            core_s[name] = core_s.get(name, 0.0) + value
            core_points[name] = (core_points.get(name, 0)
                                 + delta["core_points"][name])
        firsts.extend(delta["first_dispatch_s"][:1])
        runs.extend(delta["session_run_s"])
        gets.extend(delta["run_store_get_s"])
        puts.extend(delta["run_store_put_s"])
        hits += delta["run_store_hits"]
    for name, points in core_points.items():
        if points:
            metrics[f"core.us_per_point.{name}"] = (
                1e6 * core_s[name] / points)
    if firsts:
        metrics["pool.first_dispatch_s"] = statistics.median(firsts)
    if runs:
        metrics["session.run_s"] = statistics.fmean(runs)
    if gets:
        metrics["run_store.lookup_ms"] = 1000 * statistics.fmean(gets)
        metrics["run_store.hit_ratio"] = hits / len(gets)
    if puts:
        metrics["run_store.put_ms"] = 1000 * statistics.fmean(puts)

    metrics["trace.overhead_pct"] = (
        100 * (op_median - untraced_median) / untraced_median)
    metrics["unattributed.share"] = statistics.median(
        1 - sum(delta["self_s"].values()) / elapsed
        for elapsed, _, delta in traced)
    for name, value in scenario.layer_metrics(traced).items():
        if name not in metrics:
            raise KeyError(f"per-layer metric {name!r} is not declared "
                           f"in BENCHMARK.json")
        metrics[name] = float(value)
    return metrics


# -- entry points ------------------------------------------------------


def parse_args(argv: Optional[List[str]], workloads: List[str]
               ) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", default=DIGESTS,
                        help="recorded output digests to check against")
    parser.add_argument("--record-digests", action="store_true",
                        help="recompute the digests of every input class "
                             "(of --workload, or of all), then exit")
    args = parser.parse_args(argv)
    if not args.record_digests and args.workload is None:
        parser.error("--workload is required")
    return args


def record_digests(scenarios, workdir: str, path: str) -> None:
    """Write the reference digests of every input class."""
    from scenarios import SEED_CLASSES

    recorded: Dict[str, Any] = {}
    if os.path.isfile(path):
        with open(path) as handle:
            recorded = json.load(handle)
    recorded.update({
        "note": "Output digests per workload and input class "
                "(seed % seed_classes); regenerate with "
                "`python3 perfbench/run.py --record-digests "
                "[--workload NAME]`.",
        "seed_classes": SEED_CLASSES,
    })
    for name, cls in scenarios.items():
        recorded[name] = {}
        for input_class in range(SEED_CLASSES):
            scenario = cls(input_class, workdir, {})
            recorded[name][str(input_class)] = scenario.reference()
            print(f"{name} class {input_class}: "
                  f"{recorded[name][str(input_class)]}", flush=True)
    with open(path, "w") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")


def run(args: argparse.Namespace, spec: Dict[str, Any], workdir: str
        ) -> Dict[str, Any]:
    from layers import LayerTimer
    from scenarios import SCENARIOS, SEED_CLASSES

    with open(args.digests) as handle:
        digests = json.load(handle)
    input_class = args.seed % SEED_CLASSES
    seconds = args.seconds if args.seconds is not None else \
        spec["run_seconds"]
    scenario = SCENARIOS[args.workload](input_class, workdir, digests)
    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            scenario.close()
            began = time.perf_counter()
            scenario.setup()
            setup_times.append(time.perf_counter() - began)
        phase = seconds / 2 if args.trace else seconds
        untraced, failed = measure(scenario, phase)
        traced = []
        if args.trace:
            timer = LayerTimer()
            with timer.installed():
                traced, traced_failed = measure(scenario, phase, timer)
            failed += traced_failed
        ops = untraced + traced
        failed += scenario.check_samples([op for _, op, _ in ops])
        layer_names = [m["name"] for m in spec["per_layer"]]
        layers = (per_layer(scenario, traced, untraced, layer_names)
                  if args.trace else None)
    finally:
        scenario.close()
    e2e = end_to_end(untraced, setup_times)
    attempted = sum(len(result.latencies) or 1 for _, result, _ in ops)
    return {
        "provenance": provenance(args, input_class),
        "e2e": e2e,
        "extra": scenario.e2e_extra([(e, r) for e, r, _ in untraced]),
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
        "samples": {"ops": len(untraced),
                    "requests": sum(len(r.latencies) or 1
                                    for _, r, _ in untraced),
                    "setup_repeats": len(setup_times),
                    "traced_ops": len(traced)},
        "notes": scenario.notes,
    }


def report(outcome: Dict[str, Any], spec: Dict[str, Any], trace: bool
           ) -> Dict[str, Any]:
    """Print the readable report; return the final JSON line."""
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    prov = outcome["provenance"]
    print(f"perfbench {prov['workload']}  seed={prov['seed']} "
          f"(input class {prov['input_class']})  "
          f"git={prov['git_sha'] or 'n/a'}  "
          f"src={prov['source_sha256'][:12]}")
    host = prov["host"]
    print(f"host: {host['cpus']} CPUs {host['machine']}, Python "
          f"{host['python']}, NumPy {host['numpy']}")
    print(f"samples: {outcome['samples']}")
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"  {'failed_ratio':<34} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted})")
    for name, value in outcome["e2e"].items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    for name, (value, unit) in outcome["extra"].items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    if outcome["layers"] is not None:
        print("per-layer (traced run):")
        for name, value in outcome["layers"].items():
            print(f"  {name:<34} {value:>14.6g} {units[name]}")
    for note in outcome["notes"]:
        print(f"note: {note}")
    chosen = outcome["layers"] if trace else outcome["e2e"]
    names = [m["name"] for m in
             spec["per_layer" if trace else "end_to_end"]]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": chosen[name], "unit": units[name]}
                    for name in names},
    }


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not os.path.isdir(os.path.join(SRC, "repro")):
        fail(f"no program sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"tmp-{os.getpid()}-", dir=OUT)
    # Pool spill files and any other temp files stay in the checkout.
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    try:
        if args.record_digests:
            from scenarios import SCENARIOS

            chosen = {name: cls for name, cls in SCENARIOS.items()
                      if args.workload in (None, name)}
            record_digests(chosen, workdir, args.digests)
            return 0
        outcome = run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = report(outcome, spec, bool(args.trace))
    record = dict(outcome, correct=line["correct"])
    with open(os.path.join(OUT, "records.jsonl"), "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
