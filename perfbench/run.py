"""Benchmark of linkequiv: one workload per run, timed through the CLI.

    python3 perfbench/run.py --workload {structural,paired,bigfit} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source tree (the package is imported from
``src/``).  The run builds its input CSVs from the seed, times a fresh
interpreter's import plus one tiny warm-up command (``setup_s``), then
starts ``body.py`` in a fresh process with the BLAS thread count pinned to
1, so ``--jobs 2`` means two threads in total.  See ``README.md`` for the
workloads and metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
Scratch files go to ``.perfbench_work/`` and are removed; span records
of traced runs are kept in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import GAUSSIAN_DESIGN, GATE_FAILED, REFERENCE_GEN_SEED, WORKLOADS, copy_rows

HERE = Path(__file__).resolve().parent
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_LAUNCHES = 7
SETUP_SNIPPET = ("import sys, linkequiv, linkequiv.cli; "
                 "sys.exit(linkequiv.cli.main(sys.argv[1:]))")
BODY_TIMEOUT_S = 150
STEP_TIMEOUT_S = 60

def run_child(cmd, env, timeout, **kwargs) -> subprocess.CompletedProcess:
    """Run ``cmd`` in its own process group and wait for it; on timeout kill
    the whole group (pool workers included) and stop the run.  The wait
    blocks rather than polls, so the time it returns at is exact."""
    expired = threading.Event()

    def kill(pid):
        expired.set()
        os.killpg(pid, signal.SIGKILL)

    with subprocess.Popen(cmd, env=env, start_new_session=True, **kwargs) as proc:
        timer = threading.Timer(timeout, kill, (proc.pid,))
        timer.start()
        try:
            out, _ = proc.communicate()
        finally:
            timer.cancel()
            timer.join()
    if expired.is_set():
        raise SystemExit(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
    return subprocess.CompletedProcess(cmd, proc.returncode, out)


def run_ok(cmd, env, timeout, **kwargs) -> subprocess.CompletedProcess:
    done = run_child(cmd, env, timeout, **kwargs)
    if done.returncode != 0:
        raise SystemExit(f"exit status {done.returncode}: {' '.join(map(str, cmd))}")
    return done


def make_inputs(wl, work: Path, env) -> None:
    """Write the workload's CSVs from the reference draw."""
    references = {}
    for gen_args, dst, limit in wl.reference_inputs():
        key = tuple(gen_args)
        if key not in references:
            references[key] = work / f"reference-{len(references)}.csv"
            run_ok([sys.executable, "-m", "linkequiv.cli", "gen", *GAUSSIAN_DESIGN,
                    *gen_args, "--seed", str(REFERENCE_GEN_SEED),
                    "--out", str(references[key])],
                   env, STEP_TIMEOUT_S, stdout=subprocess.DEVNULL)
        copy_rows(references[key], dst, limit)


def setup_seconds(wl, env) -> float:
    """Median wall time of a fresh interpreter that imports linkequiv and
    linkequiv.cli and runs the workload's tiny warm-up command."""
    samples = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        run_ok([sys.executable, "-c", SETUP_SNIPPET, *wl.warmup_argv()],
               env, STEP_TIMEOUT_S, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def source_record(root: Path) -> dict:
    """The commit, when the tree is a git checkout, and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="linkequiv benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one traced round, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    if not (root / "src" / "linkequiv" / "cli.py").is_file():
        print("error: run from the root of a linkequiv source tree "
              "(src/linkequiv/cli.py not found)", file=sys.stderr)
        return 2
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans = root / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](work, args.smoke)
        make_inputs(wl, work, env)
        setup_s = None if args.trace else setup_seconds(wl, env)
        if args.trace:
            spans.parent.mkdir(exist_ok=True)
        body = run_child(
            [sys.executable, str(HERE / "body.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work", str(work), "--spans", str(spans)]
            + (["--smoke"] if args.smoke else []),
            env, BODY_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    if body.returncode == GATE_FAILED:
        print("error: " + json.loads(body.stdout.splitlines()[-1])["error"], file=sys.stderr)
        return 1
    if body.returncode != 0:
        print(f"error: body exited with status {body.returncode}", file=sys.stderr)
        return 1
    result = json.loads(body.stdout.splitlines()[-1])
    metrics = result["metrics"]
    if setup_s is not None:
        metrics["setup_s"] = (setup_s, "s")
    host = {**result["host"], **source_record(root)}
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {result['passes']} passes")
    if "pass_rates" in result:
        print("  items_per_s of each pass: " + " ".join(f"{r:.4g}" for r in result["pass_rates"]))
        print("  seconds of each piece, pass by pass: " + json.dumps(result["piece_times"]))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if not args.trace:
        frac = result["failed"] / result["attempted"]
        print(f"  failed_frac = {frac:.6g} ratio "
              f"({result['failed']} of {result['attempted']} units)")
    print("host: " + json.dumps(host))
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
