"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload call_n1000 --seed 606 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones from a traced run.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# One BLAS thread: the timed work is single-threaded SciPy and NumPy, and a
# second thread only adds scheduling noise on a shared machine.
BLAS_THREADS = "1"
DEFAULT_SEED = 606  # the master seed of the README simulate example
FRESH_SETUPS = 4  # fresh-process set-ups besides the run's own
MIN_CALLS = 11  # the tail percentile needs at least 10 calls beyond it
# Per-layer metrics: span self time and call count, per unit of work.
SELF_MS = (
    "assignment.solve_assignment", "assignment.squared_cost",
    "scores.vector_scores", "scores.chi_sq_quantile", "scores.chi_sq_sf",
    "sphere_grid.build_grid", "center_outward.empirical_map",
    "center_outward.ranks_signs", "rank_tests.two_sample_test",
    "rank_tests.k_sample_statistic",
    "baselines.sphericized_center_outward_test",
    "baselines.elliptical_rank_test", "baselines.hotelling_two_sample",
    "distributions.sample", "simulation.run_power_study",
)
CALLS = (
    "assignment.solve_assignment", "scores.chi_sq_quantile",
    "sphere_grid.build_grid", "rank_tests.standardize_design",
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_library(workload_name):
    """Import corank from the checkout and prepare a workload.

    Pins the BLAS threads first, which only takes effect before NumPy
    loads.  Returns the ``workloads`` module and the prepared workload.
    """
    if not (SRC / "corank" / "__init__.py").is_file():
        raise SystemExit(f"error: no corank sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import workloads

    if workload_name not in workloads.WORKLOADS:
        raise SystemExit(
            f"error: unknown workload {workload_name!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}"
        )
    workload = workloads.WORKLOADS[workload_name]
    workload.prepare()
    return workloads, workload


def _fresh_setup(args, probe):
    """One fresh-process set-up, scaled by the probes timed around it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload]
    before = probe()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    seconds = float(out.stdout.strip().splitlines()[-1])
    return seconds, seconds * probe.factor(before, probe())


@dataclass
class Loop:
    """What one closed loop did: per-call outcomes and times, and probes.

    ``probes`` holds one probe time before the first call and one after
    each call, so call i sits between ``probes[i]`` and ``probes[i + 1]``.
    ``peak_rss_mb`` is the process's peak resident memory when the last
    call returned, before any output check allocates its own matrices.
    """

    outcomes: list
    seconds: list
    errors: list
    wall: float
    probes: list
    peak_rss_mb: float

    def scaled(self):
        """Each call's time scaled to the nominal machine speed."""
        from speed import SpeedProbe

        return [t * SpeedProbe.factor(a, b)
                for t, a, b in zip(self.seconds, self.probes, self.probes[1:])]


def run_loop(workload, seed, seconds=None, count=None, probe=None):
    """Closed loop with one client: call i starts when call i-1 returns.

    Runs until ``seconds`` have passed (and at least ``MIN_CALLS`` calls
    are done), or for exactly ``count`` calls.  ``probe``, if given, is
    timed before the first call and after each call.
    """
    loop = Loop([], [], [], 0.0, [], 0.0)
    clock = time.perf_counter
    start = clock()
    if probe:
        loop.probes.append(probe())
    i = 0
    while (i < count) if count is not None else (
            i < MIN_CALLS or clock() - start < seconds):
        inputs = workload.inputs(seed, i)
        t0 = clock()
        try:
            outcome = workload.call(inputs)
        except Exception as err:  # a failed call is counted, not fatal
            outcome = None
            loop.errors.append(f"call {i}: {err!r}")
        loop.seconds.append(clock() - t0)
        loop.outcomes.append(outcome)
        if probe:
            loop.probes.append(probe())
        i += 1
    loop.wall = clock() - start
    loop.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return loop


def check_outcomes(workloads, workload, seed, outcomes):
    """Indices of calls whose outcome is missing or fails the output check.

    On the seed the reference was frozen for, every outcome it covers is
    compared with it.  On any seed the first call and one seeded pick are
    recomputed independently.
    """
    import numpy as np

    bad = {i for i, out in enumerate(outcomes) if out is None}
    for i, frozen in enumerate(workloads.reference(workload, seed)[:len(outcomes)]):
        if outcomes[i] is not None and not workload.matches(outcomes[i], frozen):
            bad.add(i)

    rng = np.random.default_rng([seed, len(outcomes)])
    picks = {0, int(rng.integers(len(outcomes)))}
    for i in sorted(picks - bad):
        if not workload.verify(seed, i, outcomes[i]):
            bad.add(i)
    return bad


def _end_to_end(loop, units, setups):
    """End-to-end metrics, scaled to nominal machine speed, and their raw form."""
    scaled = loop.scaled()
    ok = [i for i, out in enumerate(loop.outcomes) if out is not None]
    if not ok:
        raise SystemExit("error: every call failed; see the errors above")
    ms = sorted(scaled[i] * 1e3 for i in ok)
    raw_ms = sorted(loop.seconds[i] * 1e3 for i in ok)
    n = len(ms)
    tail = max(n - 11, 0)  # 10 calls beyond it, when that many succeeded
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "call_ms_p50": (statistics.median(ms), "ms"),
        "call_ms_tail": (ms[tail], "ms"),
        "reps_per_s": (units / sum(scaled), "1/s"),
        "peak_rss_mb": (loop.peak_rss_mb, "MB"),
    }
    record = {
        "tail_percentile": round(100.0 * tail / n, 2),
        "timed_calls": n,
        "probe_ms_median": statistics.median(loop.probes) * 1e3,
        "unscaled": {
            "setup_s": statistics.median(raw for raw, _ in setups),
            "call_ms_p50": statistics.median(raw_ms),
            "call_ms_tail": raw_ms[tail],
            "reps_per_s": units / sum(loop.seconds),
        },
        "setup_samples_s": [raw for raw, _ in setups],
    }
    return metrics, record


def _per_layer(tracer, units, traced, plain):
    """Per-layer metrics per unit of work, times scaled by each phase's probes.

    The wall times are the time inside the timed calls; input drawing and
    the probes between calls are left out.
    """
    from speed import SpeedProbe
    from tracing import LAYERS

    totals, counts = tracer.self_times()
    to_ms = 1e3 / units * SpeedProbe.factor(*traced.probes)
    traced_ms = sum(traced.seconds) * to_ms
    plain_ms = sum(plain.seconds) * 1e3 / units * SpeedProbe.factor(*plain.probes)
    metrics = {}
    for name in SELF_MS:
        metrics[f"{name}.self_ms"] = (totals[name] * to_ms, "ms")
    for name in CALLS:
        metrics[f"{name}.calls"] = (counts[name] / units, "count")
    layer_ms = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in totals.items():
        layer_ms[name.split(".")[0]] += seconds * to_ms
    for layer, value in layer_ms.items():
        metrics[f"{layer}.self_ms"] = (value, "ms")
    metrics["assignment.cost_mb"] = (tracer.cost_bytes / 1e6 / units, "MB-computed")
    metrics["assignment.share"] = (layer_ms["assignment"] / traced_ms, "fraction")
    metrics["trace.wall_ms"] = (traced_ms, "ms")
    metrics["trace.untraced_wall_ms"] = (plain_ms, "ms")
    metrics["trace.overhead_ms"] = (traced_ms - plain_ms, "ms")
    return metrics


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "corank").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[len("ref: "):]
    return target.read_text().strip() if target.is_file() else None


def _run_record(args, workloads, workload, extra):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    return {
        "workload": args.workload,
        "config": workloads.config(workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        **extra,
    }


def main(argv=None):
    args = _parse(argv)
    setup_start = time.perf_counter()
    workloads, workload = import_library(args.workload)
    own_setup = time.perf_counter() - setup_start
    if args.setup_only:
        print(repr(own_setup))
        return 0

    from speed import SpeedProbe

    probe = SpeedProbe()
    extra = {}
    if args.trace:
        from tracing import Tracer

        plain = run_loop(workload, args.seed, seconds=args.seconds / 2.0, probe=probe)
        tracer = Tracer()
        with tracer.install():
            traced = run_loop(workload, args.seed, count=len(plain.outcomes), probe=probe)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(trace_path)
        bad = check_outcomes(workloads, workload, args.seed, plain.outcomes)
        bad |= {i for i, (a, b) in enumerate(zip(plain.outcomes, traced.outcomes))
                if a != b}
        errors = plain.errors + traced.errors
        calls = len(plain.outcomes)
        units = calls * workload.units_per_call
        metrics = _per_layer(tracer, units, traced, plain)
        extra["trace_file"] = str(trace_path.relative_to(ROOT))
        attempted = 2 * units
    else:
        setups = [(own_setup, own_setup * probe.factor(probe()))]
        setups += [_fresh_setup(args, probe) for _ in range(FRESH_SETUPS)]
        loop = run_loop(workload, args.seed, seconds=args.seconds, probe=probe)
        errors = loop.errors
        bad = check_outcomes(workloads, workload, args.seed, loop.outcomes)
        calls = len(loop.outcomes)
        units = calls * workload.units_per_call
        attempted = units
    if errors:
        print("\n".join(errors), file=sys.stderr)
    if not args.trace:
        metrics, timing = _end_to_end(loop, units, setups)
        extra.update(timing)
    failed = len(bad) * workload.units_per_call
    extra.update({"calls": calls, "units": units, "failed_calls": sorted(bad),
                  "fail_frac": failed / attempted})
    print(json.dumps({"run_record": _run_record(args, workloads, workload, extra)}))
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>14.6g} {unit}")
    print(f"{'fail_frac':<48} {failed / attempted:>14.6g} fraction")
    print(json.dumps({
        "correct": not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
