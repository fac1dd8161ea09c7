"""The repository benchmark: end-to-end and per-layer metrics per workload.

    python3 perfbench/run.py --workload random50 --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 30 --trace 0

A sample is a fresh interpreter (``child.py``) that imports ``repro``, builds
the workload and runs it, so ``setup_s`` and ``peak_rss_mb`` are what a
user's CLI run or pool worker pays.  Samples run one at a time.  With
``--trace 0`` a few samples share ``--seconds``, each running the workload
again and again and cutting every run into segments; random50 and study
alternate between the pinned seed (its digest must equal ``digests.json``)
and ``--seed`` (its digest must repeat), city10k runs ``--seed`` only.
With ``--trace 1`` the run makes one untraced sample and then traced
samples (at least two) at the pinned seed and prints the per-layer metrics;
the traced digests must equal the pinned one and the work counts must
repeat exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``README.md`` says
what each metric means and which workload it belongs to.
"""

from __future__ import annotations

import argparse
import compileall
import fnmatch
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from child import IMPORT_MARKS  # noqa: E402
from workloads import DEFAULT_SEEDS, WORKDIR  # noqa: E402

#: Samples per untraced run, each one set-up (see :func:`end_to_end`).
#: random50's set-up takes under 2 s; study's about 1.5 s before 2 s runs;
#: city10k's about 6 s before 3.5 s runs.
SAMPLES = {"random50": 6, "study": 4, "city10k": 3}

#: Workloads whose runs alternate between the pinned seed and ``--seed``.
#: Their amount of work moves with the seed (the engine's event count by
#: about 12% on random50, quartile spread over ten seeds; on study one seed
#: in eight ran 11% more events than the median), and half of the runs at
#: the pinned seed damp that and compare their output with the pinned one.
#: A city10k sample builds once and forks its runs, so it runs ``--seed``
#: only; its cost is set-up, cold caches and result collection over a fixed
#: placement, which the seed hardly moves.
ALTERNATING = ("random50", "study")

#: Wall-clock time a sample may take past its deadline (a set-up and a run
#: that started just before it) before it counts as failed.
SAMPLE_MARGIN_S = 60.0

#: Work counts of a traced sample that must repeat exactly.
EXACT_COUNTS = ("events", "schedules", "cancels", "broadcasts", "wired_frames",
                "signal_starts", "mac_frames_received", "carrier_events",
                "packet_copies")

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("item_p50_s", "s"), ("item_tail_s", "s"))


# ----------------------------------------------------------------------
# Samples
# ----------------------------------------------------------------------
def sample_plan(workload: str, seed: int) -> List[tuple]:
    """Seeds of each untraced sample, in the order its runs cycle through
    them.  For an :data:`ALTERNATING` workload the pinned seed and ``seed``
    alternate within every sample, and so do the samples' first runs, so
    both seeds are timed across the whole run."""
    pinned = DEFAULT_SEEDS[workload]
    if seed == pinned or workload not in ALTERNATING:
        return [(seed,)] * SAMPLES[workload]
    return [(pinned, seed) if index % 2 == 0 else (seed, pinned)
            for index in range(SAMPLES[workload])]


def run_sample(workload: str, seeds: tuple, until: float, size: str,
               mode: str) -> dict:
    """One fresh-interpreter sample; failures come back as ``error``.

    ``mode`` is ``probe`` (segmented, untraced), ``trace`` or ``plain``.
    """
    command = [sys.executable, "-X", "importtime", str(HERE / "child.py"),
               "--workload", workload,
               "--seeds", ",".join(map(str, seeds)), "--until", repr(until),
               "--size", size]
    if mode != "plain":
        command.append(f"--{mode}")
    launched = time.monotonic()
    timeout = max(until - launched, 0.0) + SAMPLE_MARGIN_S
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"sample timed out after {timeout:.0f} s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = (done.stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": f"sample exited {done.returncode}: {tail}"}
    record = json.loads(lines[-1])
    record["import_s"] = record["import_end"] - record["import_start"]
    if "first_event" in record:
        record["setup_s"] = record["first_event"] - launched
        modules = import_times(done.stderr)
        record["setup_segments"] = {
            "interpreter start": record["import_start"] - launched,
            "rest of import repro": record["import_s"] - sum(modules.values()),
            "build": record["first_event"] - record["import_end"],
            **{f"import {name}": seconds for name, seconds in modules.items()},
        }
    return record


def import_times(stderr: str) -> Dict[str, float]:
    """Self seconds of each module that ``import repro`` loaded, read from
    the ``-X importtime`` lines between the sample's :data:`IMPORT_MARKS`."""
    times: Dict[str, float] = {}
    inside = False
    for line in stderr.splitlines():
        if line in IMPORT_MARKS:
            inside = line == IMPORT_MARKS[0]
        elif inside and line.startswith("import time:"):
            self_us, _, name = line[len("import time:"):].split("|")
            if self_us.strip().isdigit():  # not the header line
                times[name.strip()] = int(self_us) / 1e6
    return times


def digest_problems(seed: int, digest: str, pinned: Dict[str, str],
                    workload: str, seen: Dict[int, str]) -> List[str]:
    """A digest that differs from the pinned one (at the pinned seed) or from
    the first run of the same seed (at any seed)."""
    problems = []
    if seed == DEFAULT_SEEDS[workload] and digest != pinned.get(workload):
        problems.append(f"digest {digest[:12]} differs from the pinned "
                        f"{str(pinned.get(workload))[:12]}")
    expected = seen.setdefault(seed, digest)
    if digest != expected:
        problems.append(f"digest {digest[:12]} differs from the first run "
                        f"of seed {seed} ({expected[:12]})")
    return problems


def tally(records: List[dict], pinned: Dict[str, str], workload: str):
    """(attempted, failed, problems) over every operation of every run.

    An operation fails when it raised, or when a study item did not
    complete.  Every operation of a run with a wrong digest, or cut into
    another number of segments than the first run of its seed, fails; a
    sample that crashed counts one failed operation more.  Samples whose
    set-ups imported different modules cannot be cut alike, which makes the
    run incorrect.
    """
    seen: Dict[int, str] = {}
    cuts: Dict[int, int] = {}
    attempted = failed = 0
    problems: List[str] = []
    setups = [set(r["setup_segments"]) for r in records if "setup_segments" in r]
    if any(setup != setups[0] for setup in setups):
        problems.append("the samples' set-ups imported different modules")
    for record in records:
        for run in record.get("runs", []):
            operations = run["operations"]
            reasons = digest_problems(run["seed"], run["digest"], pinned,
                                      workload, seen)
            expected = cuts.setdefault(run["seed"], len(run["segments"]))
            if len(run["segments"]) != expected:
                reasons.append(f"a run of seed {run['seed']} has "
                               f"{len(run['segments'])} segments, not {expected}")
            bad = [error or "operation failed" for _, ok, error in operations if not ok]
            attempted += len(operations)
            failed += len(operations) if reasons else len(bad)
            problems.extend(reasons + bad)
        if record.get("error"):
            attempted += 1
            failed += 1
            problems.append(record["error"])
    return attempted, failed, problems


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def tail_percentile(count: int) -> Optional[int]:
    """Highest whole percentile with at least ten of ``count`` items above it."""
    best = math.floor(100 * (1 - 10 / count) + 1e-9) if count > 10 else 0
    return best if best >= 1 else None


def segment_min(runs: List[dict]) -> float:
    """Sum over segments of each segment's fastest time across ``runs``.

    All runs are of one seed, so each segment holds the same work in every
    run (``tally`` fails a run whose cut differs).
    """
    return sum(min(column) for column in zip(*(run["segments"] for run in runs)))


def end_to_end(workload: str, records: List[dict]) -> Dict[str, object]:
    """The end-to-end metrics of an untraced run.

    The host's own speed drifts by up to 1.9x, in phases from seconds to
    minutes, and that drift only ever slows code down.  So a seed's run time
    is the sum over its segments of each segment's fastest time over that
    seed's runs, and ``run_s`` is the mean over the seeds.  A study
    item's time is its fastest over the runs of its seed; the other
    workloads have one operation per run, timed the same way as ``run_s``.
    A set-up happens once per sample and is cut into segments (interpreter
    start, the self time of each module ``import repro`` loads, the rest of
    the import, the build), so ``setup_s`` is likewise the sum over segments
    of each segment's fastest time over the samples.  ``peak_rss_mb`` does
    not drift with the host and is the median over the samples.
    """
    by_seed: Dict[int, List[dict]] = {}
    for record in records:
        for run in record["runs"]:
            by_seed.setdefault(run["seed"], []).append(run)
    best = {seed: segment_min(runs) for seed, runs in by_seed.items()}
    if workload == "study":
        times = sorted(
            min(column) for runs in by_seed.values()
            for column in zip(*([seconds for seconds, _, _ in run["operations"]]
                                for run in runs)))
    else:
        times = sorted(best.values())
    percentile = tail_percentile(len(times))
    if percentile is None:
        tail, tail_name = times[-1], f"max of {len(times)} items"
    else:
        tail = statistics.quantiles(times, n=100)[percentile - 1]
        tail_name = f"p{percentile} of {len(times)} items"
    values = {
        "run_s": statistics.fmean(best.values()),
        "setup_s": sum(min(r["setup_segments"][name] for r in records)
                       for name in records[0]["setup_segments"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "item_p50_s": statistics.median(times),
        "item_tail_s": tail,
    }
    runs = ", ".join(f"seed {seed}: {len(runs)} runs, {best[seed]:.4f} s"
                     for seed, runs in by_seed.items())
    return {"values": values, "tail_name": tail_name,
            "plan": f"{len(records)} samples; {runs}"}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(untraced: dict, traced: List[dict]) -> Dict[str, float]:
    """Per-layer metrics: times are medians of the traced samples, counts
    come from the first (they repeat exactly), throughputs and the warm
    re-run from the untraced sample."""
    plain = untraced["runs"][0]
    layers = [r["layers"] for r in traced]
    counts = layers[0]["counts"]
    metrics = traced[0]["metrics"]

    def med(get) -> float:
        return statistics.median(get(layer) for layer in layers)

    def self_s(name):
        return med(lambda layer: layer["self_s"][name])

    def total(pattern: str) -> float:
        return sum(value for name, value in metrics.items()
                   if fnmatch.fnmatchcase(name, pattern))

    frames = counts["broadcasts"] + counts["wired_frames"]
    delivered = total("tcp.flow*.packets_delivered")
    success = total("mac.node*.data_tx_success")
    dropped = total("mac.node*.data_dropped_retry")
    traced_run_s = statistics.median(r["runs"][0]["run_s"] for r in traced)
    named_self = med(lambda layer: sum(
        value for name, value in layer["self_s"].items() if name != "core.loop"))

    def build_s(layer):
        return layer["incl_s"]["scenario_init"] - layer["topology_in_init_s"]

    def exec_overhead_s(layer, run):
        if not run["cold_s"]:
            return 0.0
        run_build = (layer["run_incl_s"]["scenario_init"]
                     - layer["run_topology_in_init_s"])
        return (run["cold_s"] - layer["run_incl_s"]["topology"] - run_build
                - layer["run_incl_s"]["scenario_run"])

    values = {
        "core.loop_self_s": self_s("core.loop"),
        "core.self_s": self_s("core"),
        "core.events": counts["events"],
        "core.events_per_delivered_packet": ratio(counts["events"], delivered),
        "core.schedules_per_frame": ratio(counts["schedules"], frames),
        "core.cancels_per_frame": ratio(counts["cancels"], frames),
        "core.events_per_s": ratio(counts["events"],
                                   plain["cold_s"] or plain["run_s"]),
        "phy.self_s": self_s("phy"),
        "phy.frames": counts["broadcasts"],
        "phy.fanout": ratio(counts["signal_starts"], counts["broadcasts"]),
        "phy.decode_ratio": ratio(counts["mac_frames_received"], counts["signal_starts"]),
        "phy.neighbor_build_s": med(lambda layer: layer["incl_s"]["neighbor_build"]),
        "net.self_s": self_s("net"),
        "net.copies_per_frame": ratio(counts["packet_copies"], frames),
        "mac.self_s": self_s("mac"),
        "mac.carrier_events_per_frame": ratio(counts["carrier_events"], counts["broadcasts"]),
        "mac.tx_success_ratio": ratio(success, success + dropped),
        "transport.self_s": self_s("transport"),
        "transport.delivered_packets": delivered,
        "transport.retransmissions_per_packet": ratio(total("tcp.flow*.retransmissions"),
                                                      delivered),
        "routing.self_s": self_s("routing"),
        "routing.route_discoveries": total("route.node*.route_discoveries"),
        "app.self_s": self_s("app"),
        "link.self_s": self_s("link"),
        "link.frames": counts["wired_frames"],
        "link.collision_ratio": ratio(total("link.wired.bus*.collisions"),
                                      total("link.wired.node*.frames_sent")),
        "mobility.self_s": self_s("mobility"),
        "mobility.start_s": med(lambda layer: layer["incl_s"]["mobility_start"]),
        "metrics.self_s": self_s("metrics"),
        "metrics.collect_s": med(lambda layer: layer["incl_s"]["metrics_collect"]),
        "metrics.sample_s": med(lambda layer: layer["dispatch_s"]["metrics"]),
        "topology.build_s": med(lambda layer: layer["incl_s"]["topology"]),
        "experiments.self_s": self_s("experiments"),
        "experiments.build_s": med(build_s),
        "experiments.import_s": untraced["import_s"],
        "exec.self_s": self_s("exec"),
        "exec.overhead_s": statistics.median(
            exec_overhead_s(r["layers"], r["runs"][0]) for r in traced),
        "exec.store_bytes": plain["store_bytes"],
        "exec.resume_s": plain["resume_s"],
        "trace.overhead_ratio": ratio(traced_run_s, plain["run_s"]),
        "trace.attributed_share": ratio(named_self, traced_run_s),
    }
    return values


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if any(part in name for part in ("_per_", "_ratio", "fanout", "_share")):
        return "ratio"
    return "count"


def counts_repeat(traced: List[dict]) -> List[str]:
    first = traced[0]["layers"]["counts"]
    problems = []
    for other in traced[1:]:
        for name in EXACT_COUNTS:
            if other["layers"]["counts"][name] != first[name]:
                problems.append(f"count {name} differs between traced samples: "
                                f"{first[name]} vs {other['layers']['counts'][name]}")
    return problems


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, trace: bool, size: str,
            pinned: Dict[str, str]) -> dict:
    """Run the samples of one benchmark run and assemble its result."""
    start = time.monotonic()
    if trace:
        # One untraced sample, then traced ones while the time lasts.
        default = (DEFAULT_SEEDS[workload],)
        records = [run_sample(workload, default, 0.0, size, "plain")]
        while not records[-1].get("error"):
            elapsed = time.monotonic() - start
            if len(records) >= 3 and elapsed + elapsed / len(records) > seconds:
                break
            records.append(run_sample(workload, default, 0.0, size, "trace"))
    else:
        # Sample i runs until i+1 shares of ``seconds`` have passed.
        plan = sample_plan(workload, seed)
        records = [run_sample(workload, seeds, start + (index + 1) * seconds / len(plan),
                              size, "probe")
                   for index, seeds in enumerate(plan)]
    attempted, failed, problems = tally(records, pinned, workload)
    report = {"attempted": attempted, "failed": failed, "problems": problems,
              "metrics": {}, "records": records}
    if not any(r.get("error") for r in records):
        if trace:
            untraced, traced = records[0], records[1:]
            problems.extend(counts_repeat(traced))
            values = per_layer(untraced, traced)
            report["metrics"] = {name: {"value": value, "unit": layer_unit(name)}
                                 for name, value in values.items()}
        else:
            e2e = end_to_end(workload, records)
            report["metrics"] = {name: {"value": e2e["values"][name], "unit": unit}
                                 for name, unit in END_TO_END}
            report["notes"] = [e2e["plan"], f"item_tail_s is the {e2e['tail_name']}"]
    report["correct"] = not problems
    report["failed"] = max(failed, 1) if problems else failed
    return report


def print_report(workload: str, report: dict) -> None:
    """The human-readable lines of one workload's run."""
    digests = set()
    for record in report["records"]:
        if record.get("runs"):
            times = " ".join(f"{run['seed']}:{run['run_s']:.4f}" for run in record["runs"])
            print(f"sample setup_s={record['setup_s']:.4f} "
                  f"peak_rss_mb={record['peak_rss_mb']:.1f} run_s={times}")
        digests.update((run["seed"], run["digest"]) for run in record.get("runs", []))
    for seed, digest in sorted(digests):
        print(f"digest seed={seed} sha256={digest}")
    for problem in report["problems"]:
        print(f"FAILED: {problem}")
    ratio_line = f"{report['failed']}/{report['attempted']}"
    print(f"{workload}: failed_ratio = {ratio_line} = "
          f"{report['failed'] / report['attempted']:.4g}")
    for note in report.get("notes", []):
        print(f"{workload}: {note}")
    for name, metric in report["metrics"].items():
        print(f"{workload}: {name} = {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=sorted(DEFAULT_SEEDS) + ["all"],
                        help="all: every workload in turn; the JSON line then "
                             "names each metric <workload>.<metric>")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke test's size")
    parser.add_argument("--digests", type=Path, default=HERE / "digests.json",
                        help="pinned SHA-256 per workload at its default seed")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    # Byte-compile once up front so no sample pays for it in setup_s.
    compileall.compile_dir(str(SRC), quiet=2)
    pinned = {name: entry["sha256"] for name, entry in
              json.loads(args.digests.read_text()).get(args.size, {}).items()}
    workloads = list(DEFAULT_SEEDS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        try:
            report = measure(workload, args.seed, args.seconds,
                             bool(args.trace), args.size, pinned)
        finally:
            shutil.rmtree(WORKDIR, ignore_errors=True)
        print_report(workload, report)
        summary["correct"] = summary["correct"] and report["correct"]
        summary["attempted"] += report["attempted"]
        summary["failed"] += report["failed"]
        prefix = f"{workload}." if args.workload == "all" else ""
        summary["metrics"].update((prefix + name, metric)
                                  for name, metric in report["metrics"].items())
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
