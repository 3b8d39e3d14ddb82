"""treecolor benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Every workload runs in fresh processes started one after another,
so at most one process carries load and only OpenBLAS uses threads (pinned to
``min(2, nproc)``).

``--trace 0`` first starts four set-up-only processes, then one process that
sets up, runs an untimed warm-up pass and then timed passes, one after
another (a closed loop with one client), until the next would end past S
seconds.  It reports the end-to-end metrics as medians: over the passes, and
over the five set-ups.  The host's speed drifts by up to 40% over minutes,
so before each pass the process also times a fixed piece of reference work,
and ``pipeline_s`` and ``cpu_s`` are reported at the reference speed: each
median times ``REFERENCE_S`` over the median reference time of the run.
Both are printed as measured too.  ``setup_s`` is reported as measured.  ``--trace 1`` does the same for S/2 seconds without
the set-up-only processes, then runs one traced pass after a warm-up in a
process of its own and reports the per-layer metrics, plus the tracing
overhead: the traced pass minus the median untraced one.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A run
record and the spans of the traced process are written under
``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
# The roadmap instances take up to 22 s a part, so their warm-up and timed
# passes need longer.
ROADMAP_DEADLINE_S = 600.0
# Seconds the reference work of worker.reference_seconds takes on a host of
# the reference speed.  The end-to-end times are scaled to that speed.
REFERENCE_S = 0.040


class BenchError(RuntimeError):
    pass


def blas_threads():
    return min(2, len(os.sched_getaffinity(0)))


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, mode, deadline, seconds=0.0):
    """Run one worker process to completion and return its report."""
    workdir = os.path.join(RESULTS, f"{args.workload}-{mode}")
    spawned = time.monotonic()
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--mode", mode,
           "--seconds", repr(seconds), "--spawned", repr(spawned),
           "--workdir", workdir]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} process passed the run's deadline")
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    pct = math.floor(100 * (1 - 10 / n))
    rank = max(1, math.ceil(pct / 100 * n))
    return pct, sorted(values)[rank - 1]


def summarize(passes):
    """Attempted, failed and the failure messages of a list of passes."""
    failed = [p for p in passes if p["problems"]]
    return len(passes), len(failed), [p["problems"] for p in failed]


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def run_record(args, workload, env_info, started):
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds,
        "seed_used": workload.seeded, "N": workload.n_states,
        "nnz": workload.nnz, "git_sha": git_sha(),
        "python": env_info["python"], "numpy": env_info["numpy"],
        "scipy": env_info["scipy"], "caps": env_info["caps"],
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE")
        * os.sysconf("SC_PHYS_PAGES") / 2 ** 20,
        "openblas_threads": blas_threads(), "started_unix": started,
    }


def end_to_end(args, deadline):
    setups = [spawn(args, "setup", deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    rep = spawn(args, "measure", deadline, args.seconds)
    setups.append(rep["setup_s"])
    passes = rep["passes"]
    walls = [p["wall_s"] for p in passes]
    attempted, failed, problems = summarize([rep["warmup"]] + passes)
    timed = {"pipeline_s": statistics.median(walls),
             "cpu_s": statistics.median(p["cpu_s"] for p in passes)}
    speed = REFERENCE_S / statistics.median(p["ref_s"] for p in passes)
    metrics = {
        "pipeline_s": (timed["pipeline_s"] * speed, "s"),
        "cpu_s": (timed["cpu_s"] * speed, "s"),
        "peak_rss_mb": (rep["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    tail = tail_percentile(walls)
    notes = {
        "failed_frac": (failed / attempted, "frac"),
        "host speed": (speed, "x"),
        **{f"{name} as timed": (value, "s") for name, value in timed.items()},
        "pipeline_s tail as timed": (
            "none has 10 samples beyond it" if tail is None
            else f"p{tail[0]} = {tail[1]:.6g} s", f"n={len(walls)}"),
        "setup_s samples": (", ".join(f"{s:.4f}" for s in setups), "s"),
    }
    for part in passes[0]["part_s"]:
        notes[f"{part} part_s"] = (
            statistics.median(p["part_s"][part] for p in passes), "s")
    return metrics, notes, attempted, failed, problems, rep["env"]


def traced(args, deadline):
    measured = spawn(args, "measure", deadline, args.seconds / 2.0)
    plain = measured["passes"]
    rep = spawn(args, "trace", deadline)
    attempted, failed, problems = summarize(
        [measured["warmup"]] + plain + [rep["warmup"]] + rep["passes"])
    from worker import per_layer_units

    layers = dict(rep["layers"])
    untraced_s = statistics.median(p["wall_s"] for p in plain)
    layers["trace.pipeline_s"] = rep["passes"][0]["wall_s"]
    layers["trace.overhead_s"] = layers["trace.pipeline_s"] - untraced_s
    units = per_layer_units()
    metrics = {name: (layers[name], unit) for name, unit in units.items()}
    notes = {"failed_frac": (failed / attempted, "frac"),
             "untraced pipeline_s": (untraced_s, "s"),
             "untraced passes": (len(plain), "count")}
    return metrics, notes, attempted, failed, problems, rep["env"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small", "roadmap"),
                        default="full",
                        help="small runs acceptance-sized instances (self-test); "
                             "roadmap runs the instances of the ROADMAP's "
                             "baseline figures, with passes of 3 to 22 s")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "treecolor")):
        print(f"no treecolor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.size)
    started = time.time()
    deadline = time.monotonic() + (ROADMAP_DEADLINE_S if args.size == "roadmap"
                                   else DEADLINE_S)
    try:
        measure = traced if args.trace else end_to_end
        metrics, notes, attempted, failed, problems, env_info = measure(args, deadline)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    record = run_record(args, workload, env_info, started)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["notes"] = {k: {"value": v, "unit": u} for k, (v, u) in notes.items()}
    record["attempted"], record["failed"] = attempted, failed
    record["problems"] = problems[:10]
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"record-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"N={workload.n_states}  seed_used={workload.seeded}  "
          f"openblas_threads={record['openblas_threads']}")
    for name, (value, unit) in list(metrics.items()) + list(notes.items()):
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {name:44s} {shown} {unit}")
    for prob in problems[:3]:
        print(f"  failed pass: {'; '.join(prob)}")
    print(f"  record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
