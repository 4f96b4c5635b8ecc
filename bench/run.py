"""Layered benchmark of partlyfree: one workload in this process, from a seed.

    python3 bench/run.py --workload verify_deep --seed 1 --seconds 40 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
same checkout, never from an installed copy.  The run

1. sets up ``SETUP_REPEATS`` times (import partlyfree afresh, generate the
   inputs from the seed, write the graph and pair files) and reports the
   median as ``setup_s``;
2. computes the reference verdicts (networkx runs in a child process);
3. runs passes over the workload's jobs for ``--seconds`` seconds, at least
   one (three with ``--trace 1``), checking every verdict as it comes in;
4. writes ``bench/results/<workload>-seed<seed>-trace<t>.json`` and prints
   one line per metric, then the result as one JSON line.

With ``--trace 0`` the JSON carries the end-to-end metrics of
``BENCHMARK.json``.  With ``--trace 1`` traced and untraced passes alternate;
the JSON carries the per-layer metrics (medians over traced passes), and
``trace.overhead_s`` is the median traced pass time minus the median untraced
one.  Counts must repeat exactly between traced passes.

A job fails on a wrong verdict, a wrong exit code or an uncaught exception;
failures are counted in ``failed`` and the run goes on.  ``correct`` is false
when some verdict or exit code was wrong or a count did not repeat; an
exception alone is a failure, not a wrong output.
"""

from __future__ import annotations

import argparse
import collections
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
PERCENTILES = (50, 95)

sys.path.insert(0, BENCH)
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_partlyfree() -> None:
    """Import the package from scratch; ``cli`` imports every other module."""
    for name in [m for m in sys.modules if m.partition(".")[0] == "partlyfree"]:
        del sys.modules[name]
    importlib.import_module("partlyfree.cli")


def setup(workload: str, seed: int, workdir: str, smoke: bool):
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        start = perf_counter()
        import_partlyfree()
        plan = WORKLOADS[workload](seed, workdir, smoke)
        times.append(perf_counter() - start)
    return plan, statistics.median(times)


def references(graphs: list) -> list:
    if not graphs:
        return []
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "reference.py")],
        input=json.dumps(graphs),
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    return json.loads(done.stdout)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.wrong = 0
        self.failures = collections.Counter()

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def record(self, label: str, error: str, wrong: bool) -> None:
        self.wrong += wrong
        self.failures[f"{label}: {error}"] += 1


def run_pass(jobs: list, refs: list, tally: Tally, tracer=None) -> list:
    """Run every job once; return the job times.  Each job starts with an
    empty garbage-collector generation, as a fresh CLI process would, and
    its verdict is checked after it, outside its timed region."""
    times = []
    for k, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = k
        gc.collect()
        crash = None
        start = perf_counter()
        try:
            result = job.run()
        except (Exception, SystemExit) as exc:
            crash = f"uncaught {type(exc).__name__}"
        times.append(perf_counter() - start)
        tally.attempted += 1
        error = crash or job.check(result, refs)
        if error:
            tally.record(job.label, error, wrong=crash is None)
    return times


def percentile(values: list, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


class Measurement:
    """Pass times, pooled job times and Fock work of one run."""

    def __init__(self):
        self.tally = Tally()
        self.untraced: list = []     # job time of each untraced pass
        self.traced: list = []       # job time of each traced pass
        self.layers: list = []       # per-layer metrics of each traced pass
        self.job_times: list = []    # every untraced job time
        self.fock_paths = 0
        self.fock_time = 0.0


def measure(plan, refs: list, seconds: float, tracer) -> Measurement:
    """Run passes until another one would end after ``seconds``.  With a
    tracer, traced and untraced passes alternate, starting traced, and at
    least two traced passes run so that their counts can be compared."""
    m = Measurement()
    start = perf_counter()
    while True:
        if tracer is not None and len(m.traced) <= len(m.untraced):
            tracer.spans.clear()
            tracer.install()
            try:
                times = run_pass(plan.jobs, refs, m.tally, tracer)
            finally:
                tracer.remove()
            m.traced.append(sum(times))
            m.layers.append(layer_metrics(tracer.spans))
        else:
            times = run_pass(plan.jobs, refs, m.tally)
            m.untraced.append(sum(times))
            m.job_times += times
            for job, t in zip(plan.jobs, times):
                if job.fock_dim:
                    m.fock_paths += job.fock_dim
                    m.fock_time += t
        passes = len(m.untraced) + len(m.traced)
        elapsed = perf_counter() - start
        if passes >= (3 if tracer else 1) and elapsed * (passes + 1) / passes > seconds:
            return m


def per_layer_metrics(m: Measurement, problems: list) -> dict:
    """Medians of the durations over traced passes; counts must repeat."""
    out = {}
    for k in m.layers[0]:
        values = [layers[k] for layers in m.layers]
        if k.endswith("_s"):
            out[k] = statistics.median(values)
        else:
            out[k] = values[0]
            if len(set(values)) != 1:
                problems.append(f"count {k} differs between traced passes: {values}")
    out["trace.overhead_s"] = statistics.median(m.traced) - statistics.median(m.untraced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "partlyfree", "cli.py")) or not os.path.isfile(spec_path):
        print(f"no partlyfree sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)

    workdir = os.path.join(BENCH, ".work", f"{args.workload}-{os.getpid()}")
    tracer = Tracer() if args.trace else None
    try:
        plan, setup_s = setup(args.workload, args.seed, workdir, args.smoke)
        refs = references(plan.graphs)
        gc.collect()
        gc.freeze()  # the package and the inputs live for the whole run
        m = measure(plan, refs, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    end_to_end = {
        "setup_s": setup_s,
        "wall_s": statistics.median(m.untraced),
        "fock_paths_per_s": m.fock_paths / m.fock_time,
        "peak_rss_mb": peak_rss_mb,
    }
    for p in PERCENTILES:
        end_to_end[f"verdict_s.p{p}"] = percentile(m.job_times, p)
    end_to_end["error_rate"] = m.tally.failed / m.tally.attempted
    problems: list = []
    per_layer = per_layer_metrics(m, problems) if tracer else {}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine(),
        "jobs_per_pass": len(plan.jobs),
        "passes": {"untraced": len(m.untraced), "traced": len(m.traced)},
        "samples": {"verdict_s": len(m.job_times), "setup_s": SETUP_REPEATS, "wall_s": len(m.untraced)},
        "percentile": "statistics.quantiles(n=100, method='inclusive') over all untraced job times",
        "attempted": m.tally.attempted,
        "failed": m.tally.failed,
        "failures": m.tally.failures,
        "problems": problems,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "pass_wall_s": {"untraced": m.untraced, "traced": m.traced},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    results = os.path.join(BENCH, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    if tracer:
        with open(os.path.join(results, f"{stem}-spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "job", "count"], "spans": tracer.spans}, fh)

    units = {x["name"]: x["unit"] for x in spec["end_to_end"] + spec["per_layer"]}
    units["error_rate"] = "1"
    print(f"workload {args.workload}  seed {args.seed}  passes {record['passes']}  "
          f"jobs/pass {len(plan.jobs)}  verdict samples {len(m.job_times)}")
    for name, value in list(end_to_end.items()) + list(per_layer.items()):
        print(f"{name:<24} {value:.6g} {units[name]}")
    for failure, n in sorted(m.tally.failures.items()):
        print(f"failure x{n}: {failure}")
    for problem in problems:
        print(f"problem: {problem}")
    section, measured = ("per_layer", per_layer) if tracer else ("end_to_end", end_to_end)
    print(json.dumps({
        "correct": m.tally.wrong == 0 and not problems,
        "attempted": m.tally.attempted,
        "failed": m.tally.failed,
        "metrics": {x["name"]: {"value": measured[x["name"]], "unit": x["unit"]} for x in spec[section]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
