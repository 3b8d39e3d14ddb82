"""The benchmark's workloads: inputs made from the seed, one pipeline pass,
and the reference every pass is checked against.

A workload runs its parts one after another in every pass.  Each part goes
through the entry point a user would call: the ``treecolor`` command line
(``cli.main``) where a command covers the pipeline, and the library
functions themselves where none does.  The seed picks a root-preserving
vertex relabeling of every tree that the entry point reads as a parent
array.  A relabeling leaves N, nnz and every reference value unchanged, so
the references below hold for every seed.

Every part comes in three sizes: ``full`` is the benchmark, ``small`` the
acceptance-sized instance of the self-test, and ``roadmap`` the instance
behind the ROADMAP's baseline figures, whose passes are too long to give a
steady median in one run.
"""

from __future__ import annotations

import json
import math
import os
import random
import time

from treecolor import canonical, cli
from treecolor import tensorization as tz
from treecolor.colorings import uniform_lists
from treecolor.trees import (build_complete_regular, load_tree, save_tree,
                             tree_from_parents)


def relabeled_tree_file(parent, root, seed, path):
    """Write ``parent`` with its non-root vertices renamed by a permutation
    drawn from ``seed``; the root keeps its label."""
    rng = random.Random(seed)
    others = [v for v in range(len(parent)) if v != root]
    targets = others[:]
    rng.shuffle(targets)
    name = dict(zip(others, targets))
    name[root] = root
    moved = [None] * len(parent)
    for v, p in enumerate(parent):
        if p is not None:
            moved[name[v]] = name[p]
    save_tree(tree_from_parents(moved, root), path)
    return path


def path_parents(n_edges):
    return [None] + list(range(n_edges))


def path_count(n_edges, q):
    """Proper q-edge-colorings of a path: q (q-1)^(n-1)."""
    return q * (q - 1) ** (n_edges - 1)


def complete_regular_count(delta, depth, q):
    """The root picks delta distinct colors, every other internal vertex
    picks delta-1 colors avoiding its parent edge."""
    inner = sum((delta - 1) ** (lvl - 1) * delta for lvl in range(1, depth))
    return (math.perm(q, delta)
            * math.perm(q - 1, delta - 1) ** inner)


def _write_config(workdir, name, doc):
    # JSON is a subset of YAML, so the command line reads this as its config.
    path = os.path.join(workdir, name + ".yaml")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _run_command(command, config, out):
    rc = cli.main([command, "--config", config, "--out", out])
    if rc != 0:
        return rc, None
    with open(os.path.join(out, command + ".json")) as fh:
        return rc, json.load(fh)


def _near(name, got, want, tol):
    if got is None or abs(got - want) > tol:
        return [f"{name}={got!r}, reference {want!r} +- {tol:g}"]
    return []


def _equal(name, got, want):
    return [] if got == want else [f"{name}={got!r}, reference {want!r}"]


class SparseGap:
    name = "sparse-gap"
    why = ("treecolor gap, heat-bath Glauber on an 8-edge path, q=4: the only "
           "workload above DENSE_CAP, so sparse assembly and power iteration")
    seeded = True
    sizes = {
        "full": {"n_edges": 8, "q": 4, "caps": {}, "nnz": 113_724,
                 "lambda2": 0.952323228, "t_rel": 20.97457},
        "roadmap": {"n_edges": 10, "q": 4, "caps": {}, "nnz": 1_233_468,
                    "lambda2": 0.96289458, "t_rel": 26.950},
        # The small instance lowers the dense cap so it takes the same route.
        "small": {"n_edges": 4, "q": 3, "caps": {"dense": 16}, "nnz": 96,
                  "lambda2": 0.95740553, "t_rel": 23.47723},
    }

    def __init__(self, size):
        self.p = self.sizes[size]
        self.n_states = path_count(self.p["n_edges"], self.p["q"])
        self.nnz = self.p["nnz"]

    def prepare(self, seed, workdir):
        tree = relabeled_tree_file(path_parents(self.p["n_edges"]), 0, seed,
                                   os.path.join(workdir, "tree.txt"))
        doc = {"command": "gap", "tree": {"shape": "file", "file": tree},
               "q": self.p["q"], "lists": "uniform",
               "kind": "HEATBATH_GLAUBER"}
        if self.p["caps"]:
            doc["caps"] = self.p["caps"]
        self.config = _write_config(workdir, "gap", doc)
        self.out = workdir

    def run(self):
        rc, doc = _run_command("gap", self.config, self.out)
        return {"rc": rc, "doc": doc}

    def mismatches(self, result):
        if result["rc"] != 0:
            return [f"exit code {result['rc']}"]
        doc = result["doc"]
        # The tolerance admits power iteration, which is off by some 1e-8,
        # and a Lanczos solver, which is closer still.
        return (_equal("N", doc.get("N"), self.n_states)
                + _near("lambda2", doc.get("lambda2"), self.p["lambda2"], 1e-7)
                + _near("t_rel", doc.get("t_rel"), self.p["t_rel"], 1e-3))


class DenseCertify:
    name = "dense-certify"
    why = ("tensorize plus the one-spare-color induction chain on "
           "complete_regular(2,5), q=3: dense eigensolves and PSD forms at N=1536")
    seeded = True
    sizes = {
        # nnz of the BLOCK chain that optimal_at_constant builds above
        # FORMS_CAP; the small instance stays below it and builds none.
        "full": {"delta": 2, "depth": 5, "q": 3, "nnz": 10_752,
                 "at_constant": 16.817093995, "gamma": 2.0,
                 "alpha": (8.0, 4.0)},
        "roadmap": {"delta": 3, "depth": 2, "q": 4, "nnz": 41_472,
                    "at_constant": 8.346011396, "gamma": 2.0,
                    "alpha": (12.0, 16.0 / 3.0)},
        "small": {"delta": 2, "depth": 2, "q": 4, "nnz": None,
                  "at_constant": 2.202931450, "gamma": 1.5,
                  "alpha": (8.0, 4.0)},
    }

    def __init__(self, size):
        self.p = self.sizes[size]
        self.n_states = complete_regular_count(self.p["delta"], self.p["depth"],
                                               self.p["q"])
        self.nnz = self.p["nnz"]

    def prepare(self, seed, workdir):
        shape = build_complete_regular(self.p["delta"], self.p["depth"])
        path = relabeled_tree_file(list(shape.parent), shape.root, seed,
                                   os.path.join(workdir, "tree.txt"))
        self.tree = load_tree(path)
        self.config = _write_config(workdir, "tensorize", {
            "command": "tensorize", "tree": {"shape": "file", "file": path},
            "q": self.p["q"], "lists": "uniform"})
        self.out = workdir

    def run(self):
        rc, doc = _run_command("tensorize", self.config, self.out)
        # The command line has no way to run this chain: its induction
        # command always builds the q = delta + 2 congestion first.
        delta, q = self.p["delta"], self.p["q"]
        routing = canonical.routing_bound_ell1(delta)
        alpha = [routing["alpha0"], routing["alpha1"]]
        gamma = tz.gamma_constant(delta, q, 1)
        res = tz.verify_induction(self.tree, uniform_lists(self.tree, q), 1,
                                  alpha, gamma)
        return {"rc": rc, "doc": doc, "alpha": alpha, "gamma": gamma,
                "verdict": "pass" if res["ok"] else "fail"}

    def mismatches(self, result):
        if result["rc"] != 0:
            return [f"exit code {result['rc']}"]
        # min_eigenvalue is not checked: both forms vanish on constants, so it
        # sits at roundoff around zero whatever the verdict.
        want_a0, want_a1 = self.p["alpha"]
        return (_near("at_constant_singletons",
                      result["doc"].get("at_constant_singletons"),
                      self.p["at_constant"], 1e-6)
                + _near("alpha0", result["alpha"][0], want_a0, 1e-9)
                + _near("alpha1", result["alpha"][1], want_a1, 1e-9)
                + _near("gamma", result["gamma"], self.p["gamma"], 1e-8)
                + _equal("verdict", result["verdict"], "pass"))


class Congestion:
    name = "congestion"
    why = ("treecolor congestion with Glauber paths on hanging_root(2,7) q=4 "
           "and hanging_root(3,2) q=5: pure-Python canonical paths")
    # compute_congestion needs the level-0 hanging edge, which only the built
    # shape carries; a parent-array file would get generic levels.
    seeded = False
    sizes = {
        "full": {"trees": [
            (2, 7, 4, [12.499314128944153, 6.164609053497949,
                       1.5267489711934141, 0.6831275720164632,
                       0.16872427983539098, 0.07407407407407407,
                       0.019204389574759947, 0.00823045267489712]),
            (3, 2, 5, [16.66666666666669, 10.249999999999883,
                       2.5000000000000027])]},
        "roadmap": {"trees": [
            (2, 9, 4, [12.499923792102953, 6.16643804298233,
                       1.5276634659350987, 0.6849565614997649,
                       0.1696387745770466, 0.07590306355738484,
                       0.018747142203932324, 0.00823045267489712,
                       0.0021338210638622165, 0.0009144947416552356]),
            (3, 2, 5, [16.66666666666669, 10.249999999999883,
                       2.5000000000000027])]},
        "small": {"trees": [
            (2, 3, 4, [12.444444444444448, 6.000000000000001,
                       1.5555555555555554, 0.6666666666666666]),
            (3, 1, 5, [14.5, 9.0])]},
    }

    def __init__(self, size):
        self.p = self.sizes[size]
        # Hanging-root support with star-root lists: the root edge has q-d
        # colors, every d-ary vertex below picks d colors avoiding its parent.
        self.n_states = sum(
            (q - (delta - 1)) * math.perm(q - 1, delta - 1)
            ** sum((delta - 1) ** j for j in range(depth))
            for delta, depth, q, _ in self.p["trees"])
        self.nnz = None  # builds no transition matrix

    def prepare(self, seed, workdir):
        self.runs = []
        for i, (delta, depth, q, xi) in enumerate(self.p["trees"]):
            out = os.path.join(workdir, f"tree{i}")
            config = _write_config(workdir, f"congestion{i}", {
                "command": "congestion",
                "tree": {"shape": "hanging_root", "delta": delta,
                         "depth": depth},
                "q": q, "lists": "star_root", "paths": "glauber"})
            self.runs.append((config, out, xi))

    def run(self):
        return {"runs": [_run_command("congestion", config, out)
                         for config, out, _ in self.runs]}

    def mismatches(self, result):
        problems = []
        for (rc, doc), (_, _, xi) in zip(result["runs"], self.runs):
            if rc != 0:
                problems.append(f"exit code {rc}")
                continue
            got = doc.get("xi") or []
            if len(got) != len(xi):
                problems.append(f"xi has {len(got)} levels, reference {len(xi)}")
                continue
            for t, (g, w) in enumerate(zip(got, xi)):
                problems += _near(f"xi[{t}]", g, w, 1e-9 * abs(w))
        return problems


class EnumerateScale:
    name = "enumerate-scale"
    why = ("treecolor enumerate on an 18-edge path, q=3: 393,216 states held "
           "in memory, the one workload where oracle dominates")
    seeded = True
    sizes = {
        "full": {"n_edges": 18, "q": 3},
        "roadmap": {"n_edges": 20, "q": 3},
        "small": {"n_edges": 4, "q": 3},
    }

    def __init__(self, size):
        self.p = self.sizes[size]
        self.n_states = path_count(self.p["n_edges"], self.p["q"])
        self.nnz = None  # builds no transition matrix

    def prepare(self, seed, workdir):
        tree = relabeled_tree_file(path_parents(self.p["n_edges"]), 0, seed,
                                   os.path.join(workdir, "tree.txt"))
        self.config = _write_config(workdir, "enumerate", {
            "command": "enumerate", "tree": {"shape": "file", "file": tree},
            "q": self.p["q"], "lists": "uniform"})
        self.out = workdir

    def run(self):
        rc, doc = _run_command("enumerate", self.config, self.out)
        return {"rc": rc, "doc": doc}

    def mismatches(self, result):
        if result["rc"] != 0:
            return [f"exit code {result['rc']}"]
        return _equal("size", result["doc"].get("size"), self.n_states)


class Workload:
    """Parts run one after another as one pass.  Each part keeps its own
    inputs and reference; a pass fails if any part misses its own.
    ``part_s`` holds the wall seconds of each part in the last pass."""

    part_types = ()

    def __init__(self, size):
        self.parts = [cls(size) for cls in self.part_types]
        self.seeded = {p.name: p.seeded for p in self.parts}
        self.n_states = {p.name: p.n_states for p in self.parts}
        self.nnz = {p.name: p.nnz for p in self.parts}
        self.part_s = {}

    def prepare(self, seed, workdir):
        for part in self.parts:
            sub = os.path.join(workdir, part.name)
            os.makedirs(sub, exist_ok=True)
            part.prepare(seed, sub)

    def run(self):
        results = []
        self.part_s = {}
        for part in self.parts:
            t0 = time.perf_counter()
            results.append(part.run())
            self.part_s[part.name] = time.perf_counter() - t0
        return results

    def mismatches(self, result):
        return [f"{part.name}: {problem}"
                for part, res in zip(self.parts, result)
                for problem in part.mismatches(res)]


class Spectral(Workload):
    name = "spectral"
    why = ("sparse-gap then dense-certify: spectral and tensorization do the "
           "work, sparse and dense; oracle is about 1%")
    part_types = (SparseGap, DenseCertify)


class Combinatorial(Workload):
    name = "combinatorial"
    why = ("congestion then enumerate-scale: pure-Python canonical paths and "
           "enumeration; spectral and tensorization do nothing")
    part_types = (Congestion, EnumerateScale)


WORKLOADS = {w.name: w for w in (Spectral, Combinatorial)}
