"""Self-test of the benchmark at the ``tiny`` size (about two minutes).

    python3 perfbench/smoke.py

For every workload it checks that:

* an untraced run is correct and prints every end-to-end metric of
  ``BENCHMARK.json`` with its unit, on the JSON line and on a text line;
* a traced run is correct and prints every per-layer metric with its unit,
  and a second traced run gives exactly the same counts;
* a wrong pinned digest turns the run incorrect and counts as failed.

It also checks that the benchmark refuses to run without ``src/``.  Exits
non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
from workloads import DEFAULT_SEEDS  # noqa: E402


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    command = [sys.executable, str(cwd / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(DEFAULT_SEEDS[workload]),
               "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    return done


def result_of(done) -> tuple:
    if done.returncode != 0:
        raise AssertionError(f"benchmark exited {done.returncode}: {done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def check_metrics(workload: str, result: dict, text: list, section: str) -> None:
    for metric in SPEC[section]:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit:
            raise AssertionError(f"{workload}: {name} missing or not in {unit}: {got}")
        if not any(line.startswith(f"{workload}: {name} = ")
                   and line.endswith(f" {unit}") for line in text):
            raise AssertionError(f"{workload}: no text line for {name} in {unit}")
    if set(result["metrics"]) != {metric["name"] for metric in SPEC[section]}:
        raise AssertionError(f"{workload}: metrics differ from {section}")


def check_correct(workload: str, result: dict) -> None:
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{workload}: run not correct: {result}")


def main() -> int:
    counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "ratio")
               and not m["name"].startswith("trace.")]
    for workload in DEFAULT_SEEDS:
        result, text = result_of(bench(workload, 0))
        check_correct(workload, result)
        check_metrics(workload, result, text, "end_to_end")

        traced = []
        for _ in range(2):
            result, text = result_of(bench(workload, 1))
            check_correct(workload, result)
            check_metrics(workload, result, text, "per_layer")
            traced.append({name: result["metrics"][name]["value"] for name in counted})
        if traced[0] != traced[1]:
            diff = {k: (traced[0][k], traced[1][k]) for k in counted
                    if traced[0][k] != traced[1][k]}
            raise AssertionError(f"{workload}: counts differ between runs: {diff}")
        print(f"ok {workload}")

    with tempfile.TemporaryDirectory() as tmp:
        wrong = Path(tmp) / "digests.json"
        pinned = json.loads((HERE / "digests.json").read_text())
        pinned["tiny"]["random50"]["sha256"] = "0" * 64
        wrong.write_text(json.dumps(pinned))
        result, _ = result_of(bench("random50", 0, "--digests", str(wrong)))
        if result["correct"] or result["failed"] < 1:
            raise AssertionError(f"a wrong pinned digest was not a failure: {result}")
        print("ok wrong digest fails")

        bare = Path(tmp) / "bare"
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = bench("random50", 0, cwd=bare)
        if done.returncode == 0 or done.stdout.strip():
            raise AssertionError("the benchmark ran without src/")
        print("ok refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
