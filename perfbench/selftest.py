#!/usr/bin/env python3
"""The benchmark's own test: metric coverage, digest checks, seeds.

Runs ``perfbench/run.py`` on the ``validate`` workload (the cheapest)
with a one-second measuring time and checks that

* every metric the benchmark defines is printed with its unit, both in
  the readable report and in the final JSON line (end-to-end metrics
  untraced, per-layer metrics traced);
* a deliberately wrong recorded digest is counted as a failure;
* a second seed runs without error.

Run from the repository root, either way::

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

The file is deliberately not named ``test_*.py``: it runs the benchmark
and takes about a minute, so the repository's default test collection
skips it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOAD = "validate"
#: Figures the report prints for ``validate`` beyond BENCHMARK.json.
REPORT_ONLY = {"failed_ratio": "ratio",
               "sim_instructions_per_s": "instr/s",
               "model_cpi_error_pct": "%"}


def bench(*args: str) -> tuple:
    """Run the benchmark; return (report lines, final JSON object)."""
    completed = subprocess.run(
        [sys.executable, RUN, "--workload", WORKLOAD, "--seconds", "1",
         *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def printed_with_unit(lines, name: str, unit: str) -> bool:
    for line in lines:
        fields = line.split()
        if len(fields) >= 3 and fields[0] == name and fields[2] == unit:
            return True
    return False


def check_metrics(lines, result, metrics) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for metric in metrics:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"], metric
        assert isinstance(entry["value"], (int, float)), metric
        assert printed_with_unit(lines, metric["name"], metric["unit"]), \
            f"{metric['name']} not printed with its unit"


def test_end_to_end_metrics_printed_with_units():
    lines, result = bench("--seed", "1", "--trace", "0")
    assert result["correct"] and result["failed"] == 0, result
    check_metrics(lines, result, declared()["end_to_end"])
    for name, unit in REPORT_ONLY.items():
        assert printed_with_unit(lines, name, unit), name
    for metric in declared()["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0, metric


def test_per_layer_metrics_printed_with_units():
    lines, result = bench("--seed", "1", "--trace", "1")
    assert result["correct"], result
    check_metrics(lines, result, declared()["per_layer"])


def test_wrong_digest_counts_as_failure():
    with open(os.path.join(HERE, "digests.json")) as handle:
        digests = json.load(handle)
    digests[WORKLOAD]["1"]["stable"] = "0" * 64
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch, prefix="selftest-"
                                     ) as folder:
        wrong = os.path.join(folder, "digests.json")
        with open(wrong, "w") as handle:
            json.dump(digests, handle)
        _, result = bench("--seed", "1", "--digests", wrong)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_second_seed_runs():
    _, result = bench("--seed", "2")
    assert result["correct"] and result["failed"] == 0, result


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            test()
            print(f"ok  {name}")
