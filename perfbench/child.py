"""One sample of a workload, in a fresh interpreter.

``run.py`` starts this script once per sample, so every sample pays the
interpreter start, the ``repro`` import and the construction that a user's
CLI run or pool worker pays.  The sample builds and runs the workload, then
builds and runs it again, cycling through ``--seeds``, as long as another
run is expected to end before ``--until`` (a ``time.monotonic()`` instant).
Only the first build counts as set-up.  ``run.py`` starts the interpreter
with ``-X importtime``, and the sample brackets ``import repro`` with the
:data:`IMPORT_MARKS` lines on standard error, so that ``run.py`` can cut the
set-up into pieces.  The peak resident memory is read after the first run
made in the sample's own process.  A ``--probe`` sample makes at least
``workloads.MIN_RUNS`` runs.  With ``--probe`` each run is cut into
segments (see ``workloads.py``).  A sample of a ``workloads.FORKED``
workload builds once and makes every run but the last in a forked copy of
itself, which starts from the same built, unrun workload; that saves a
costly rebuild per run.  The last line of standard output is one JSON
record.

    python3 perfbench/child.py --workload random50 --seeds 11,8 [--until T] [--size tiny] [--probe | --trace]
"""

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Lines written to standard error just before and just after ``import repro``.
IMPORT_MARKS = ("perfbench: import repro starts", "perfbench: import repro ends")


def outcome_record(seed: int, outcome) -> dict:
    return {
        "seed": seed,
        "digest": outcome.digest,
        "run_s": outcome.run_s,
        "segments": outcome.segments,
        "cold_s": outcome.cold_s,
        "operations": [[op.seconds, op.ok, op.error] for op in outcome.operations],
        "resume_s": outcome.resume_s,
        "store_bytes": outcome.store_bytes,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def forked(run, seed: int, probe: bool) -> dict:
    """The record of ``run(probe)`` made in a forked copy of this process,
    which exits after it; an exception in the copy comes back as
    ``RuntimeError``."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:  # the copy must never return into the caller's loop
            os.close(read_fd)
            try:
                result = {"run": outcome_record(seed, run(probe))}
            except Exception as exc:  # noqa: BLE001 - reported to the parent
                result = {"error": f"{type(exc).__name__}: {exc}"}
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(result, pipe)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    os.waitpid(pid, 0)
    result = json.loads(data) if data else {"error": "forked run died"}
    if "error" in result:
        raise RuntimeError(result["error"])
    return result["run"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True,
                        help="comma-separated simulation seeds, run in turn")
    parser.add_argument("--until", type=float, default=0.0,
                        help="monotonic deadline; 0 makes exactly one run")
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--probe", action="store_true",
                        help="cut each run into segments with a clock probe")
    parser.add_argument("--trace", action="store_true",
                        help="wrap every layer's public API while building "
                             "and running, and report per-layer figures")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    print(IMPORT_MARKS[0], file=sys.stderr, flush=True)
    import_start = time.monotonic()
    import repro  # noqa: F401
    import_end = time.monotonic()
    print(IMPORT_MARKS[1], file=sys.stderr, flush=True)

    seeds = [int(seed) for seed in args.seeds.split(",")]
    fork = args.workload in workloads.FORKED
    # Plain and traced samples (``--until 0``) make exactly one run.
    min_runs = workloads.MIN_RUNS[args.workload] if args.probe else 1
    record = {"workload": args.workload, "import_start": import_start,
              "import_end": import_end, "runs": [], "error": ""}
    setup = workloads.SETUPS[args.workload]
    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.LayerTracer()
        tracer.install()
    try:
        run = setup(seeds[0], args.size)
        record["first_event"] = time.monotonic()
        if tracer is not None:
            tracer.mark_run_start()
        index, started = 0, time.monotonic()
        while True:
            seed = seeds[index % len(seeds)]
            now = time.monotonic()
            pace = (now - started) / index if index else 0.0
            # Is another run due after this one?
            more = index + 1 < min_runs or now + 2 * pace <= args.until
            if fork and more:
                # The built workload stays unrun here: the last run is made
                # in this process, so peak_rss_mb is an ordinary process's.
                record["runs"].append(forked(run, seed, args.probe))
            else:
                if index and not fork:
                    run = None
                    gc.collect()  # free the previous scenario outside any timing
                    run = setup(seed, args.size)
                outcome = run(args.probe)
                record.setdefault("peak_rss_mb", peak_rss_mb())
                record["runs"].append(outcome_record(seed, outcome))
            index += 1
            if not more:
                break
    except Exception as exc:  # noqa: BLE001 - a failed run is a result
        record["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None and not record["error"]:
        record["layers"] = tracer.report()
        record["metrics"] = outcome.metrics
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
