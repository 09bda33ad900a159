"""Timed body of one benchmark run, started by ``run.py`` in a fresh process.

    python3 perfbench/body.py --workload W --seed N --seconds S --trace 0|1 \
        --work DIR [--spans PATH] [--smoke]

The inputs under ``--work`` must already exist.  Each piece of a pass
calls ``linkequiv.cli.main(argv)`` in this process with the argv a user
would type, so argument parsing and CSV input and output are inside the
timing.  The last line of standard output is one JSON object:

- ``--trace 0``: ``items_per_s`` of identical passes, from the fastest
  time of each piece, and ``peak_rss_mb``.
- ``--trace 1``: the per-layer metrics of ``TRACE_ROUNDS`` traced passes at
  ``--jobs 1``, interleaved with untraced passes at ``--jobs 1`` (and at the
  workload's own ``--jobs``) for the tracing overhead and the speedup.

A failed correctness gate prints ``{"error": ...}`` and exits with status
``GATE_FAILED``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import numpy as np
import scipy

import linkequiv.cli as cli
from linkequiv import links, parallel
from linkequiv.links import LinkKind

from spans import Tracer
from workloads import GATE_FAILED, LINKS, WORKLOADS, GateError, Tally

TRACE_ROUNDS = 3
LINK_FUNCTIONS = ("cdf", "density", "density_prime")
# (label, n, calls per sample) of the direct link-evaluation timings
LINK_SIZES = (("n199", 199, 200), ("n200k", 200_000, 3))
SAMPLES = 7
NOOP_REPEATS = 3


def run_piece(wl, seed: int, jobs: int, k: int) -> tuple[float, list[int], list[str], bytes]:
    """Run piece ``k`` of a pass; return its wall seconds, exit codes,
    standard outputs and output bytes (files and standard output, for
    identity checks)."""
    commands = wl.commands(seed, jobs, k)
    for path in wl.outputs(k):
        path.unlink(missing_ok=True)
    codes, stdouts = [], []
    start = time.perf_counter()
    for argv in commands:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            codes.append(cli.main(argv))
        stdouts.append(buffer.getvalue())
    seconds = time.perf_counter() - start
    snapshot = b"".join(p.read_bytes() for p in wl.outputs(k) if p.exists())
    return seconds, codes, stdouts, snapshot + "".join(stdouts).encode()


def run_pass(wl, seed: int, jobs: int) -> tuple[list[float], Tally, list[bytes]]:
    """Run every piece once; return each piece's seconds, the pass's tally
    (which applies the gates) and each piece's output bytes."""
    seconds, results, snapshots = [], [], []
    for k in range(wl.pieces):
        piece_s, codes, stdouts, snapshot = run_piece(wl, seed, jobs, k)
        seconds.append(piece_s)
        results.append((codes, stdouts))
        snapshots.append(snapshot)
    return seconds, wl.tally(results), snapshots


def host_probe() -> float:
    """Seconds for a fixed pure-Python plus numpy loop with no linkequiv code,
    median of three.  Reported beside the metrics, never used to scale them."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        a = np.arange(100_000, dtype=float)
        for _ in range(100):
            a = np.sqrt(a * a + 1.0)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def host_record(probe_s: float) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "probe_s": probe_s,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its finished
    worker processes (ru_maxrss is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def timed_pass(wl, seed: int, seconds: float) -> dict:
    """Identical passes at the workload's own --jobs until the next would
    overrun.  Other load on the host only slows a piece, so each piece's
    fastest time tracks the code's own speed best; ``items_per_s`` is the
    items of a pass over the sum of those fastest times."""
    best = [math.inf] * wl.pieces
    pass_times, rates, piece_times = [], [], []
    attempted = failed = 0
    first = None
    start = time.perf_counter()
    while True:
        piece_s, tally, snapshots = run_pass(wl, seed, wl.jobs)
        if first is None:
            first = snapshots
        elif snapshots != first:
            raise GateError(f"{wl.name}: a rerun with the same seed changed the output")
        best = [min(b, t) for b, t in zip(best, piece_s)]
        piece_times.append(piece_s)
        pass_times.append(sum(piece_s))
        rates.append(tally.items / pass_times[-1])
        attempted += tally.attempted
        failed += tally.failed
        if time.perf_counter() - start + statistics.median(pass_times) > seconds:
            break
    if wl.jobs > 1:
        _, _, serial = run_pass(wl, seed, 1)
        if serial != first:
            raise GateError(f"{wl.name}: --jobs {wl.jobs} output differs from --jobs 1")
    return {
        "attempted": attempted,
        "failed": failed,
        "passes": len(rates),
        "pass_rates": rates,
        "piece_times": piece_times,
        "metrics": {"items_per_s": (tally.items / sum(best), "items/s"),
                    "peak_rss_mb": (peak_rss_mb(), "MB")},
    }


def _noop(task):
    return None


def link_costs(seed: int) -> dict[str, tuple[float, str]]:
    """Microseconds per direct call of each link function, median of SAMPLES."""
    rng = np.random.default_rng(seed)
    out = {}
    for label, n, calls in LINK_SIZES:
        u = rng.normal(0.0, 2.0, n)
        for fname in LINK_FUNCTIONS:
            fn = getattr(links, fname)
            for link in LinkKind:
                samples = []
                for _ in range(SAMPLES):
                    start = time.perf_counter()
                    for _ in range(calls):
                        fn(link, u)
                    samples.append((time.perf_counter() - start) / calls)
                out[f"links.{fname}.{link.value}.{label}_us"] = (
                    statistics.median(samples) * 1e6, "us")
    return out


def noop_map_ms(task_lists) -> float:
    """Milliseconds to run replicate_map over one pass's task lists with a
    no-op at jobs 2, median of NOOP_REPEATS."""
    if not task_lists:
        return 0.0
    samples = []
    for _ in range(NOOP_REPEATS):
        start = time.perf_counter()
        for tasks in task_lists:
            parallel.replicate_map(_noop, tasks, jobs=2)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def layer_metrics(tracers: list[Tracer], items: int) -> dict[str, tuple[float, str]]:
    """Per-layer ``name -> (value, unit)`` over the traced passes.  Counts are
    per item, per fit or per pass; a layer the workload never calls reads 0."""
    passes = len(tracers)
    items = max(items, 1)
    durations = defaultdict(list)
    self_ns = defaultdict(int)
    fits = []
    for tracer in tracers:
        for name, values in tracer.durations_ns().items():
            durations[name].extend(values)
        for layer, ns in tracer.self_ns_by_layer().items():
            self_ns[layer] += ns
        fits.extend(tracer.noted("fit.fit_mle"))

    def count(name):
        return len(durations.get(name, ()))

    def median(name, unit_ns):
        values = durations.get(name)
        return statistics.median(values) / unit_ns if values else 0.0

    m = {"links.calls_per_item": (sum(count(f"links.{f}") for f in LINK_FUNCTIONS) / items,
                                   "count")}
    n_fits = count("fit.fit_mle")
    for fname in ("log_likelihood", "score", "observed_information"):
        m[f"fit.evals_per_fit.{fname}"] = (count(f"fit.{fname}") / n_fits if n_fits else 0.0,
                                            "count")
    for link in LINKS:
        rows = [(ns, iterations, converged) for ns, (kind, iterations, converged) in fits
                if kind == link]
        ms = [ns / 1e6 for ns, _, _ in rows]
        m[f"fit.fit_mle_ms.{link}.p50"] = (float(np.percentile(ms, 50)) if ms else 0.0, "ms")
        m[f"fit.fit_mle_ms.{link}.p99"] = (float(np.percentile(ms, 99)) if ms else 0.0, "ms")
        m[f"fit.fit_mle_ms.{link}.n"] = (len(ms), "count")
        m[f"fit.iterations_mean.{link}"] = (
            statistics.fmean(it for _, it, _ in rows) if rows else 0.0, "count")
        m[f"fit.converged_frac.{link}"] = (
            sum(conv for _, _, conv in rows) / len(rows) if rows else 0.0, "ratio")
    m["fit.self_s"] = (self_ns["fit"] / 1e9 / passes, "s")
    m["rng.substream_us"] = (median("rng.substream", 1e3), "us")
    m["rng.streams_per_item"] = (count("rng.substream") / items, "count")
    m["equiv.generate_dataset_us"] = (median("equiv.generate_dataset", 1e3), "us")
    m["equiv.self_s"] = (self_ns["equiv"] / 1e9 / passes, "s")
    m["concord.split_us"] = (median("concord.split", 1e3), "us")
    m["concord.splits_per_item"] = (count("concord.split") / items, "count")
    m["concord.test_error_us"] = (median("concord.test_error", 1e3), "us")
    m["parallel.map_calls"] = (count("parallel.replicate_map") / passes, "count")
    tasks = [task for tracer in tracers
             for _, task_list in tracer.noted("parallel.replicate_map") for task in task_list]
    m["parallel.task_bytes"] = (
        statistics.fmean(len(ForkingPickler.dumps(task)) for task in tasks) if tasks else 0.0,
        "bytes")
    m["cli.read_dataset_csv_ms"] = (median("cli.read_dataset_csv", 1e6), "ms")
    m["cli.self_s"] = (self_ns["cli"] / 1e9 / passes, "s")
    return m


def traced_pass(wl, seed: int, spans_path: Path, rounds: int) -> dict:
    plain, traced, parallel_rates = [], [], []
    tracers = []
    attempted = failed = traced_items = 0
    for k in range(rounds):
        snapshots = {}
        # alternate which side runs first, so host drift favours neither
        for kind in (("plain", "traced") if k % 2 == 0 else ("traced", "plain")):
            if kind == "plain":
                piece_s, tally, snapshots[kind] = run_pass(wl, seed, 1)
                plain.append(tally.items / sum(piece_s))
            else:
                tracer = Tracer()
                with tracer.installed():
                    piece_s, tally, snapshots[kind] = run_pass(wl, seed, 1)
                tracer.write(spans_path, k, "wt" if k == 0 else "at")
                tracers.append(tracer)
                traced.append(tally.items / sum(piece_s))
                traced_items += tally.items
            attempted += tally.attempted
            failed += tally.failed
        if snapshots["traced"] != snapshots["plain"]:
            raise GateError(f"{wl.name}: traced output differs from untraced output")
        if wl.jobs > 1:
            piece_s, tally, fanned = run_pass(wl, seed, wl.jobs)
            parallel_rates.append(tally.items / sum(piece_s))
            attempted += tally.attempted
            failed += tally.failed
            if fanned != snapshots["plain"]:
                raise GateError(f"{wl.name}: --jobs {wl.jobs} output differs from --jobs 1")
    metrics = layer_metrics(tracers, traced_items)
    metrics.update(link_costs(seed))
    metrics["parallel.noop_map_ms"] = (noop_map_ms(
        [task_list for _, task_list in tracers[0].noted("parallel.replicate_map")]), "ms")
    plain_rate = max(plain)
    metrics["parallel.speedup_j2"] = (
        max(parallel_rates) / plain_rate if parallel_rates else 0.0, "ratio")
    overhead = plain_rate - max(traced)
    metrics["trace.overhead_items_per_s"] = (overhead, "items/s")
    metrics["trace.overhead_frac"] = (overhead / plain_rate, "ratio")
    return {"attempted": attempted, "failed": failed, "passes": len(plain) + len(traced)
            + len(parallel_rates), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload](args.work, args.smoke)
    # first calls load lazy imports and fill caches, as the set-up probe does
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(wl.warmup_argv()) != 0:
            raise SystemExit(f"{wl.name}: warm-up command failed")
    probe_s = host_probe()
    try:
        if args.trace:
            result = traced_pass(wl, args.seed, args.spans, 1 if args.smoke else TRACE_ROUNDS)
            result["metrics"]["host.probe_s"] = (probe_s, "s")
        else:
            result = timed_pass(wl, args.seed, args.seconds)
    except GateError as exc:
        print(json.dumps({"error": str(exc)}))
        return GATE_FAILED
    result["host"] = host_record(probe_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
