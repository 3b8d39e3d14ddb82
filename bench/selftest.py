"""Fast self-test of the benchmark on acceptance-sized instances.

    python3 bench/selftest.py

Checks, for every workload:

* ``run.py --size small`` prints every end-to-end metric (trace 0) and every
  per-layer metric (trace 1) by name with its unit, and its last line is the
  result object with exactly the metrics that BENCHMARK.json lists;
* a deliberately wrong reference of any one part makes every pass fail, so
  it shows in ``failed_frac``;

and that ``run.py`` exits nonzero without a result where there are no
sources to benchmark.  Exits 0 when everything holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# One reference per part, moved just outside its tolerance.
WRONG = {
    "sparse-gap": lambda w: setattr(w, "p", dict(w.p, lambda2=w.p["lambda2"] + 1e-6)),
    "dense-certify": lambda w: setattr(w, "p", dict(w.p, at_constant=w.p["at_constant"] * 1.001)),
    "congestion": lambda w: setattr(w, "runs", [
        (cfg, out, [x * (1 + 1e-8) for x in xi]) for cfg, out, xi in w.runs]),
    "enumerate-scale": lambda w: setattr(w, "n_states", w.n_states + 1),
}


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace),
         "--size", "small"], cwd=ROOT, capture_output=True, text=True,
        timeout=170)
    return proc.returncode, proc.stdout


def check_printed(workload, trace, spec, problems):
    rc, out = run_bench(workload, trace)
    if rc != 0:
        problems.append(f"{workload} trace {trace}: exit code {rc}")
        return
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload} trace {trace}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{workload} trace {trace}: a pass failed: {out}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append(f"{workload} trace {trace}: metrics differ from BENCHMARK.json")
    printed = [line.split() for line in lines[:-1]]
    names = [m["name"] for m in wanted] + ["failed_frac"]
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{workload}: {m['name']} has unit {got.get('unit')!r}")
    for name in names:
        unit = {m["name"]: m["unit"] for m in wanted}.get(name, "frac")
        if not any(f[:1] == [name] and f[-1] == unit for f in printed):
            problems.append(f"{workload} trace {trace}: {name} not printed with {unit}")


def check_wrong_reference(name, problems):
    for i, part in enumerate(WORKLOADS[name].part_types):
        workload = WORKLOADS[name]("small")
        workdir = os.path.join(run.RESULTS, f"{name}-selftest")
        os.makedirs(workdir, exist_ok=True)
        workload.prepare(5, workdir)
        with contextlib.redirect_stdout(io.StringIO()):
            attempted, failed, _ = run.summarize([worker.run_pass(workload)
                                                  for _ in range(3)])
        if failed:
            problems.append(f"{name}: {failed} of {attempted} passes fail on "
                            "the true reference")
        WRONG[part.name](workload.parts[i])
        with contextlib.redirect_stdout(io.StringIO()):
            attempted, failed, _ = run.summarize([worker.run_pass(workload)
                                                  for _ in range(3)])
        if failed != attempted:
            problems.append(f"{name}: wrong {part.name} reference gave "
                            f"failed_frac {failed / attempted:g}, expected 1")


def check_bare_directory(problems):
    """Without src/ the benchmark must refuse to run."""
    bare = os.path.join(run.RESULTS, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "bench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".md")):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "bench"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "spectral", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("run.py printed a result without sources")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != list(
            worker.per_layer_units().items()):
        problems.append("BENCHMARK.json per_layer differs from worker.per_layer_units")
    for name in WORKLOADS:
        for trace in (0, 1):
            check_printed(name, trace, spec, problems)
        check_wrong_reference(name, problems)
    check_bare_directory(problems)
    for prob in problems:
        print("FAIL", prob)
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
