"""The benchmark's workloads, built only through the public ``repro`` API.

Each workload is split into ``setup`` (import-free construction of the
topology, spec and ``Scenario``) and the ``run`` it returns, so the caller
can time the two apart.  A run returns an :class:`Outcome`: the digest of the
simulated output, the host seconds of the run cut into consecutive
*segments*, and the per-operation records that ``failed`` and the item
timings are computed from.

Segments exist so that runs of the same seed can be compared piece by piece:
two runs of one seed do exactly the same work in each segment.  A scenario
run is cut by a probe event that reads the clock every
:data:`PROBE_PERIOD_S` simulated seconds (it changes no simulated state, so
the digest stays the same); a study run is cut at each item completion.

Sizes: ``full`` is what the benchmark measures; ``tiny`` is the smoke
test's size, small enough to run every workload in seconds.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

#: Scratch directory of a benchmark run; ``run.py`` deletes it at the end.
WORKDIR = Path(__file__).resolve().parent.parent / ".perfbench-tmp"

#: Pinned seed of each workload.  random50 uses the seed of its golden trace
#: in ``tests/regression``; city10k and study use the library defaults.
DEFAULT_SEEDS = {"random50": 11, "city10k": 1, "study": 1}

#: Workload size knobs.  random50 and city10k run a fixed simulated time;
#: study sweeps a fixed set of points.
SIZES = {
    "full": {"random50_sim_s": 2.0,
             "city_nodes": 10_000, "city_sim_s": 1.0,
             "study_hops": (2, 3, 4, 5, 6, 7), "study_packets": 60,
             "study_replications": 1},
    "tiny": {"random50_sim_s": 0.5,
             "city_nodes": 1000, "city_sim_s": 0.2,
             "study_hops": (2,), "study_packets": 25,
             "study_replications": 1},
}

#: Simulated seconds between two probe events of a scenario run: a few
#: milliseconds of host time per segment at the ``full`` size.
PROBE_PERIOD_S = {"random50": 0.01, "city10k": 0.02}

#: Runs each untraced sample makes at least.  A city10k run takes about
#: 3.5 s after a 5 s set-up, and its result collection is a few long
#: segments, whose minima need several runs.
MIN_RUNS = {"random50": 1, "city10k": 2, "study": 1}

#: Workloads whose samples build once and make each run in a forked copy
#: (see ``child.py``): rebuilding the 10k-node city takes as long as a run.
FORKED = ("city10k",)

#: Transport variants the study sweeps.
STUDY_VARIANTS = ("vegas", "newreno")


def digest(payload: dict) -> str:
    """SHA-256 of a result's ``to_dict()`` in canonical JSON form."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class Operation:
    """One attempted operation: a scenario run or a study item."""

    seconds: float
    ok: bool
    error: str = ""


@dataclass
class Outcome:
    """What one run of a workload produced."""

    digest: str
    #: Host seconds of the run proper: ``Scenario.run``, or both
    #: ``execute_study`` calls.
    run_s: float
    #: ``run_s`` cut into consecutive pieces that sum to it.
    segments: List[float] = field(default_factory=list)
    operations: List[Operation] = field(default_factory=list)
    #: Flat metrics snapshot of the result, summed over a study's runs.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Study only: seconds of the cold run and of the warm re-run, and the
    #: bytes the store holds after them.
    cold_s: float = 0.0
    resume_s: float = 0.0
    store_bytes: int = 0


#: ``run(probe)`` runs the workload once; ``probe=False`` leaves a scenario
#: run unsegmented (one segment), as the traced samples need.
Run = Callable[[bool], Outcome]


def _segments(marks: List[float]) -> List[float]:
    return [b - a for a, b in zip(marks, marks[1:])]


# ----------------------------------------------------------------------
# Scenario workloads
# ----------------------------------------------------------------------
def _scenario_run(scenario, probe_period: float) -> Run:
    """A run of ``scenario``, which stops at a fixed simulated time; only an
    exception, which ends the sample, counts as its failure."""
    def run(probe: bool) -> Outcome:
        marks: List[float] = []
        if probe:
            sim, clock = scenario.sim, time.perf_counter

            def tick() -> None:
                marks.append(clock())
                sim.schedule(probe_period, tick)

            sim.schedule(probe_period, tick)
        start = time.perf_counter()
        result = scenario.run()
        end = time.perf_counter()
        return Outcome(
            digest=digest(result.to_dict()),
            run_s=end - start,
            segments=_segments([start, *marks, end]),
            operations=[Operation(end - start, True)],
            metrics=dict(result.metrics or {}),
        )
    return run


def setup_random50(seed: int, size: str) -> Run:
    """50 random nodes, five Vegas flows, on the random50 golden's placement.

    The placement seed stays 11 (the golden's topology); ``seed`` drives the
    simulation's own randomness.  The run is cut after a fixed simulated
    time, so the packet target is set out of reach.
    """
    from repro import Scenario, ScenarioConfig, ScenarioSpec, Workload
    from repro import random_topology

    topology = random_topology(node_count=50, area=(1300.0, 800.0),
                               flow_count=5, seed=11)
    config = ScenarioConfig(variant="vegas", seed=seed, packet_target=10**9,
                            max_sim_time=SIZES[size]["random50_sim_s"])
    spec = ScenarioSpec(topology=topology,
                        workload=Workload.from_topology(topology),
                        config=config)
    return _scenario_run(Scenario(spec), PROBE_PERIOD_S["random50"])


def setup_city10k(seed: int, size: str) -> Run:
    """The 10k-node random-waypoint city, cut after its first simulated second.

    The placement seed stays at the spec's default; ``seed`` drives the
    simulation (mobility, MAC).
    """
    from repro import Scenario
    from repro.experiments.scenarios import city_scenario_spec

    spec = city_scenario_spec("random-waypoint",
                              node_count=SIZES[size]["city_nodes"])
    spec = spec.with_config(seed=seed, max_sim_time=SIZES[size]["city_sim_s"],
                            packet_target=10**9)
    return _scenario_run(Scenario(spec), PROBE_PERIOD_S["city10k"])


# ----------------------------------------------------------------------
# Study workload
# ----------------------------------------------------------------------
def study_spec(seed: int, size: str):
    """Serial chain sweep: link layer x variant x hops, time-series plane on."""
    from repro import ScenarioConfig, SweepSpec, Workload

    params = SIZES[size]
    return SweepSpec(
        name="perfbench-study",
        topology="chain",
        axes={"link_layer": ["wireless", "wired"],
              "variant": list(STUDY_VARIANTS),
              "hops": list(params["study_hops"])},
        # A 1 s run slice stops each point soon after its packet target
        # instead of at the next 5 s boundary.
        base=ScenarioConfig(packet_target=params["study_packets"],
                            max_sim_time=120.0, run_slice=1.0, metrics=True),
        workload_factory=Workload.from_topology,
        replications=params["study_replications"],
        base_seed=seed,
    )


def _tree_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def setup_study(seed: int, size: str) -> Run:
    """A serial ``execute_study`` sweep checkpointed to a fresh store, then a
    warm re-run answered from that store.

    Every item must complete and the warm result must equal the cold one.
    Item seconds are the gaps between successive completions reported by
    the progress callback: lease, run, checkpoint and aggregation of one
    item, as a user of the study plane waits for it.  The segments are the
    item gaps plus the time before the first item, after the last one, and
    the warm re-run.
    """
    from repro import execute_study
    from repro.experiments.exec import StudyExecutionError

    spec = study_spec(seed, size)
    WORKDIR.mkdir(exist_ok=True)
    store = Path(tempfile.mkdtemp(prefix="study-", dir=WORKDIR))

    def run(probe: bool) -> Outcome:
        marks: List[float] = []
        done = [0]

        def progress(snapshot) -> None:
            if snapshot.done != done[0] or not marks:
                done[0] = snapshot.done
                marks.append(time.perf_counter())

        failures: List[Operation] = []
        try:
            start = time.perf_counter()
            try:
                cold = execute_study(spec, backend="serial", store=store,
                                     progress=progress)
            except StudyExecutionError as exc:
                cold = exc.partial
                failures = [Operation(0.0, False, f"item {item.item_id}: {item.error}")
                            for item in exc.failed]
            cold_end = time.perf_counter()
            warm = execute_study(spec, backend="serial", store=store) if not failures else cold
            end = time.perf_counter()
            store_bytes = _tree_bytes(store)
        finally:
            shutil.rmtree(store, ignore_errors=True)
        operations = [Operation(b - a, True) for a, b in zip(marks, marks[1:])]
        operations += failures
        cold_digest = digest(cold.to_dict())
        if digest(warm.to_dict()) != cold_digest:
            operations.append(Operation(end - cold_end, False,
                                        "warm re-run differs from cold run"))
        metrics: Dict[str, float] = {}
        for point in cold.points:
            for result in point.runs:
                for name, value in (result.metrics or {}).items():
                    metrics[name] = metrics.get(name, 0.0) + value
        return Outcome(digest=cold_digest, run_s=end - start,
                       segments=_segments([start, *marks, cold_end, end]),
                       operations=operations, metrics=metrics,
                       cold_s=cold_end - start, resume_s=end - cold_end,
                       store_bytes=store_bytes)
    return run


SETUPS = {
    "random50": setup_random50,
    "city10k": setup_city10k,
    "study": setup_study,
}
