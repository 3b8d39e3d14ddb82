"""One fresh benchmark process: set up one workload and, unless in ``setup``
mode, run one untimed warm-up pass, then timed passes (one traced pass in
``trace`` mode), and report them.

    python3 bench/worker.py --workload NAME --seed N --size full|small|roadmap \
        --mode setup|measure|trace --seconds S --spawned T --workdir DIR

The process runs this one workload only, so ``peak_rss_mb`` and ``setup_s``
are its own.  The warm-up pass pays the first-call costs (lazy imports inside
numpy and scipy, allocator growth) and is checked like every other pass.  In
``measure`` mode passes follow one another until the next would end past S
seconds after the warm-up; there is always at least one.  Each comes after
one timing of a fixed piece of reference work, from which ``run.py`` scales
the times to a host of the reference speed.

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up time covers interpreter start, imports and input
generation.  The last line on standard output is one JSON object; the
program's own console output goes to /dev/null.  Run by ``bench/run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import sys
import time


# The reference work of ``reference_seconds``: about 40 ms on the reference
# guest.  Changing it changes the scale of ``pipeline_s`` and ``cpu_s``.
REFERENCE_LOOP = 200_000
REFERENCE_TABLE = 25_000
REFERENCE_SUMS = 50
REFERENCE_ARRAY = 500_000


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Counters taken in the traced run from a call's arguments and result.


def _states(tr, args, out):
    tr.add("oracle.states", getattr(out, "size", 0))


def _matrix(tr, args, out):
    import numpy as np

    mat = getattr(out, "matrix", None)
    n = getattr(out, "n", 0)
    if mat is None or n < tr.counters.get("spectral.transition_matrix.dim", 0):
        return
    nnz = int(np.count_nonzero(mat)) if isinstance(mat, np.ndarray) else int(mat.nnz)
    tr.counters["spectral.transition_matrix.dim"] = n
    tr.counters["spectral.transition_matrix.nnz"] = nnz


def _report(tr, args, out):
    tr.peak("spectral.spectral_report.dim", getattr(out, "n_states", 0))


def _certify(tr, args, out):
    if args:
        tr.peak("tensorization.certify_inequality.dim", args[0].shape[0])


def _form(tr, args, out):
    import numpy as np

    tr.add("tensorization.form_cells", out.size)
    tr.add("tensorization.form_nonzeros", int(np.count_nonzero(out)))


def _path(tr, args, out):
    tr.add("canonical.path_steps", len(getattr(out, "blocks", ())))


def _congestion(tr, args, out):
    pairs = getattr(out, "per_pair", {}).values()
    tr.add("canonical.transitions", sum(len(pc.usage) for pc in pairs))


HOOKS = {
    "oracle.enumerate_colorings": _states,
    "spectral.transition_matrix": _matrix,
    "spectral.spectral_report": _report,
    "tensorization.certify_inequality": _certify,
    "tensorization.cond_var_form": _form,
    "tensorization.projector": _form,
    "tensorization.var_form": _form,
    "canonical.build_path": _path,
    "canonical.compute_congestion": _congestion,
}

# ``trees`` and ``colorings`` are helpers called millions of times inside the
# other layers, so they get no spans of their own.
LAYERS = ("oracle", "dynamics", "spectral", "canonical", "tensorization", "cli")

# (function span, metrics); s = inclusive seconds, self_s = minus child spans,
# calls, rss_mb = largest growth of ru_maxrss across one call.
SPAN_METRICS = (
    ("oracle.enumerate_colorings", ("self_s", "calls", "rss_mb")),
    ("oracle.count_colorings", ("self_s",)),
    ("spectral.transition_matrix", ("self_s", "calls", "rss_mb")),
    ("spectral.spectral_report", ("self_s", "calls", "rss_mb")),
    ("tensorization.cond_var_form", ("self_s", "calls")),
    ("tensorization.projector", ("self_s", "calls")),
    ("tensorization.var_form", ("self_s", "calls")),
    ("tensorization.verify_induction", ("self_s", "rss_mb")),
    ("tensorization.optimal_at_constant", ("self_s",)),
    ("tensorization.certify_inequality", ("self_s", "calls")),
    ("canonical.build_path", ("s", "calls")),
    ("canonical.verify_path", ("s", "calls")),
    ("canonical.compute_congestion", ("self_s",)),
    ("dynamics.block_assignments", ("s", "calls")),
)
UNITS = {"s": "s", "self_s": "s", "calls": "count", "rss_mb": "MB"}

# Counters: totals over the pass, except the dims and nnz, which belong to
# the largest matrix of the pass.
COUNTERS = (
    ("oracle.states", "count"),
    ("spectral.transition_matrix.nnz", "count"),
    ("spectral.spectral_report.dim", "count"),
    ("tensorization.certify_inequality.dim", "count"),
    ("canonical.path_steps", "count"),
    ("canonical.transitions", "count"),
)


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, kinds in SPAN_METRICS:
        for kind in kinds:
            units[f"{span}.{kind}"] = UNITS[kind]
    for name, unit in COUNTERS:
        units[name] = unit
    units["spectral.transition_matrix.density"] = "frac"
    # Bytes of the dense forms, computed as calls * N^2 * 8, not measured.
    units["tensorization.form_bytes"] = "B-computed"
    units["tensorization.form_density"] = "frac"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "frac"
    units["trace.spans"] = "count"
    units["trace.pipeline_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def layer_metrics(tracer):
    """Layer figures from the spans and counters of one traced pass."""
    import numpy as np

    sp = tracer.arrays()
    index = {name: i for i, name in enumerate(tracer.names)}
    n_names = len(tracer.names)
    calls = np.bincount(sp["name_id"], minlength=n_names)
    incl = np.bincount(sp["name_id"], weights=sp["dur"], minlength=n_names)
    self_s = np.bincount(sp["name_id"], weights=sp["self"], minlength=n_names)
    rss = np.zeros(n_names)
    np.maximum.at(rss, sp["name_id"], sp["rss_kb"] / 1024.0)
    out = {}
    for span, kinds in SPAN_METRICS:
        i = index.get(span)
        for kind in kinds:
            if i is None:
                value = 0.0
            elif kind == "rss_mb":
                value = float(rss[i])
            else:
                value = float({"s": incl, "self_s": self_s, "calls": calls}[kind][i])
            out[f"{span}.{kind}"] = value
    c = tracer.counters
    for name, _ in COUNTERS:
        out[name] = c.get(name, 0)
    dim = c.get("spectral.transition_matrix.dim", 0)
    out["spectral.transition_matrix.density"] = (
        out["spectral.transition_matrix.nnz"] / dim ** 2 if dim else 0.0)
    cells = c.get("tensorization.form_cells", 0)
    out["tensorization.form_bytes"] = 8.0 * cells
    out["tensorization.form_density"] = (
        c.get("tensorization.form_nonzeros", 0) / cells if cells else 0.0)
    total = float(sp["dur"][sp["parent"] < 0].sum())
    for layer in LAYERS:
        ids = [i for name, i in index.items() if name.startswith(layer + ".")]
        value = float(self_s[ids].sum())
        out[f"{layer}.self_s"] = value
        out[f"{layer}.share"] = value / total if total else 0.0
    out["trace.spans"] = len(sp["dur"])
    return out


# ---------------------------------------------------------------------------


def run_pass(workload, tracer=None):
    """One pass, timed, then checked.  A pass fails when it raises, when the
    command exits nonzero or when its output misses the reference.

    The pipelines leave reference cycles behind, which a command-line run
    never collects because its process ends.  Collecting them before the pass
    starts every pass on the same heap, so ``ru_maxrss`` stays one pass's."""
    gc.collect()
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            result = workload.run()
        else:
            result = tracer.span("bench.pass", workload.run)
    except SystemExit as exc:  # argparse rejecting the command line
        result, problems = None, [f"exit code {exc.code}"]
    except Exception as exc:  # a failing pass is reported, not fatal
        result, problems = None, [f"{type(exc).__name__}: {exc}"]
    else:
        problems = None
    wall = time.perf_counter() - w0
    cpu = time.process_time() - c0
    if problems is None:
        problems = workload.mismatches(result)
    return {"wall_s": wall, "cpu_s": cpu, "part_s": dict(workload.part_s),
            "problems": problems}


def environment():
    import numpy
    import scipy

    from treecolor import oracle, spectral, tensorization

    caps = {}
    for mod, name in ((spectral, "DENSE_CAP"), (spectral, "SPARSE_CAP"),
                      (tensorization, "FORMS_CAP"), (spectral, "MIXING_CAP"),
                      (oracle, "ENUMERATION_CAP")):
        caps[name] = getattr(mod, name, None)
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "caps": caps}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
        msg = work(args)
    print(json.dumps(msg), flush=True)
    return 0


def reference_seconds(array):
    """Seconds that a fixed piece of work takes on this host right now:
    interpreted integer arithmetic, a dict of tuples built and dropped, and
    sums of ``array`` streamed from memory.  The passes do the same kinds of
    work.  The garbage a pass leaves is collected first, and the collector
    is off while the work runs, so no heap of the program's is traversed."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_LOOP):
            acc += i * i % 7
        table = {(i, i % 7): [i] for i in range(REFERENCE_TABLE)}
        del table
        for _ in range(REFERENCE_SUMS):
            array.sum()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def timed_passes(workload, seconds):
    """Passes one after another until the next would end past ``seconds``,
    each after one timing of the reference work."""
    import numpy as np

    array = np.ones(REFERENCE_ARRAY)
    passes = []
    began = time.perf_counter()
    while True:
        ref = reference_seconds(array)
        passes.append(dict(run_pass(workload), ref_s=ref))
        if time.perf_counter() - began + passes[-1]["wall_s"] + ref > seconds:
            return passes


def work(args):
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.size)
    os.makedirs(args.workdir, exist_ok=True)
    workload.prepare(args.seed, args.workdir)
    msg = {"setup_s": time.monotonic() - args.spawned}
    if args.mode == "setup":
        return msg
    msg["warmup"] = run_pass(workload)
    if args.mode == "measure":
        msg["passes"] = timed_passes(workload, args.seconds)
    else:
        from treecolor import (canonical, cli, dynamics, oracle, spectral,
                               tensorization)

        from tracer import Tracer

        tracer = Tracer(HOOKS, rss=[span for span, kinds in SPAN_METRICS
                                    if "rss_mb" in kinds])
        tracer.install({"oracle": oracle, "dynamics": dynamics,
                        "spectral": spectral, "canonical": canonical,
                        "tensorization": tensorization, "cli": cli})
        msg["passes"] = [run_pass(workload, tracer)]
        msg["layers"] = layer_metrics(tracer)
        tracer.save(os.path.join(args.workdir, "spans.npz"))
    msg["peak_rss_mb"] = _maxrss_mb()
    msg["env"] = environment()
    return msg


if __name__ == "__main__":
    sys.exit(main())
