"""Configuration-driven experiment harness.

Usage::

    treecolor <command> --config <file> [--out <dir>] [--seed <u64>]

Commands read a YAML config; flags override file values.  ``main`` types
the whole config by ``_FIELDS`` once, before any work: an unknown key, a
missing required field, a value of the wrong kind and an ``--out`` that is no
directory are refused first.  A command runs one module pipeline on the typed
values and returns ``(doc, summary, failure)``.  ``main`` alone adds the
config echo (the config as written), dumps ``doc`` to ``<command>.json``
(``-`` becomes ``_``) and prints ``<command>: <summary> -> <path>``; ``sweep``
also writes ``sweep.csv``.  Spectral docs hold ``SpectralReport.export()``,
``gap`` too.  Exit codes: 0 success, 2 config error, 3 capacity exceeded, 4 a
checked inequality failed (stderr names it, as ``<command>: FAILED
(<failure>)`` or, when the pipeline raises, ``verification failure:
<message>``), 1 any other package error (``error: <message>``).  Any other
exception is a program fault: it propagates with its traceback (exit 1).
"""

from __future__ import annotations

import argparse
import csv
import decimal
import json
import math
import os
import sys

import yaml

from . import canonical, dynamics, oracle, spectral, tensorization as tz
from .colorings import pinned_root_lists, star_root_lists, uniform_lists
from .errors import (CapacityError, ConfigError, ParameterError,
                     TreecolorError, VerificationError)
from .trees import (build_complete_regular, build_hanging_root, load_tree,
                    tree_from_parents)

# The config keys each command reads; any other is refused.
_COMMAND_KEYS = {command: {"command", "out", "seed", *keys.split()} for command, keys in {
    "enumerate": "tree q lists pinned_color caps include_states",
    "count": "tree q lists pinned_color",
    "gap": "tree q lists pinned_color kind caps",
    "mix": "tree q lists pinned_color kind caps eps",
    "conductance": "tree q lists pinned_color kind caps",
    "lowerbound": "tree q edge strict",
    "congestion": "tree q lists pinned_color paths",
    "tensorize": "tree q lists pinned_color blocks alpha",
    "induction": "tree q ell alpha gamma",
    "star-analysis": "delta_range",
    "sweep": "tree q lists pinned_color kind caps sweep",
}.items()}
# The keys of a tree section, by shape, and of a sweep section; a sweep may
# set any tree key and any key gap reads, but command and out.
_SHAPE_KEYS = {shape: {"shape", *keys.split()} for shape, keys in {
    "complete_regular": "delta depth", "hanging_root": "delta depth",
    "path": "n_edges", "file": "file"}.items()}
_SWEEP_KEYS = {"param", "values", "command"}
_SWEPT = set().union(_COMMAND_KEYS["gap"], *_SHAPE_KEYS.values()) - {"command", "out"}


def load_config(path, overrides):
    try:
        with open(path) as fh:
            doc = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader)) or {}
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping")
    doc.update({k: v for k, v in overrides.items() if v is not None})
    return doc


def _open_output(path, newline=None):
    """``path`` opened for writing, its directory made first; a path that
    cannot be made or opened is a config error that names it."""
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return open(path, "w", newline=newline)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ConfigError(f"cannot write {path}: {exc}")


_FIELD_KINDS = {int: (int, "an integer"), float: ((int, float), "a number"),
                bool: (bool, "a boolean"), list: (list, "a nonempty list"),
                str: (str, "a nonempty string"), dict: (dict, "a mapping")}


def _field(value, name, kind=int, positive=False):
    """The config field ``name`` as a ``kind``: an int field takes only ints, a
    float field ints and floats (returned as a float), a bool, list, str or dict
    field only booleans, nonempty lists, nonempty strings or mappings.  YAML reads
    ``true`` as a boolean and ``"2"`` as a string, so neither is a number; with
    ``positive`` anything below 1 is refused too."""
    types, noun = _FIELD_KINDS[kind]
    if (isinstance(value, bool) != (kind is bool) or not isinstance(value, types)
            or (positive and value < 1) or value in ([], "")):
        raise ConfigError(f"{name} must be {'a positive integer' if positive else noun}, "
                          f"not {value!r}")
    return kind(value)


def _at_least(least, name):
    """The kind of an int field, ``name`` in full, that is at least ``least``:
    refused by name before any work, as the pipelines would refuse it later."""
    def kind(value):
        if _field(value, name) < least:
            raise ConfigError(f"{name} must be an integer >= {least}, not {value!r}")
        return value
    return kind


def build_tree(spec):
    """The tree of a ``tree`` section, typed by the keys of its shape."""
    spec = _field(spec, "tree", dict)
    shape = _typed({"shape": spec.get("shape")}, {"shape"}, "tree", "tree.")["shape"]
    spec = _typed(spec, _SHAPE_KEYS[shape], "tree", "tree.")
    if shape == "file":
        try:
            return load_tree(spec["file"])
        except OSError as exc:
            raise ConfigError(f"cannot read tree file {spec['file']}: {exc}")
    if shape == "path":
        return tree_from_parents([None] + list(range(spec["n_edges"])), 0)
    build = build_complete_regular if shape == "complete_regular" else build_hanging_root
    return build(spec["delta"], spec["depth"])


def _caps(caps):  # cap names stay open: a config may still carry the retired dense cap
    return {name: _field(cap, f"caps.{name}", positive=True)
            for name, cap in _field(caps, "caps", dict).items()}


def _seed(seed):
    if _field(seed, "seed") < 0:
        raise ConfigError(f"seed must be a nonnegative integer, not {seed!r}")
    return seed


def _eps(eps):
    eps = _field(eps, "eps", float)
    if not 1e-9 <= eps < 1:  # a total-variation distance never exceeds 1
        raise ConfigError(f"eps must lie in [1e-9, 1), not {eps!r}")
    return eps


def _alpha(alpha):
    if not isinstance(alpha, list):
        raise ConfigError(f"alpha must be a list of per-level weights, not {alpha!r}")
    return [_field(x, f"alpha[{i}]", float) for i, x in enumerate(alpha)]


def _delta_range(deltas):
    return [_at_least(2, f"delta_range[{i}]")(d)
            for i, d in enumerate(_field(deltas, "delta_range", list))]


def _sweep(spec):
    spec = _typed(_field(spec, "sweep", dict), _SWEEP_KEYS, "sweep", "sweep.")
    if spec["command"] not in (None, "gap"):
        raise ConfigError("sweep currently drives the gap command")
    if spec["param"] not in _SWEPT:
        raise ConfigError(f"cannot sweep over {spec['param']!r}")
    return spec


REQUIRED = object()
# Each config key, then each key of tree and sweep sections: its kind, and the
# default an absent or null key takes, or REQUIRED.  A kind is a type of
# _FIELD_KINDS, a tuple of the values allowed or a function that types the
# value, as ``_at_least`` does an integer with a lower bound.  Keys are typed
# in this order, so a tree is refused before its q.
_FIELDS = {
    "command": (str, None), "out": (str, "results"), "seed": (_seed, None),
    "tree": (build_tree, REQUIRED), "q": (_at_least(1, "q"), REQUIRED),
    "lists": (("uniform", "star_root", "pinned_root"), "uniform"), "pinned_color": (int, 1),
    "kind": ((*dynamics.SINGLE_EDGE_KINDS, dynamics.NEIGHBOR_PAIR), dynamics.HEATBATH_GLAUBER),
    "caps": (_caps, {}), "include_states": (bool, False), "eps": (_eps, 0.25),
    "edge": (int, 0), "strict": (bool, True), "blocks": (("pairs",), None),
    "paths": ((canonical.GLAUBER_PATHS, canonical.EDGE_PATHS), canonical.GLAUBER_PATHS),
    "alpha": (_alpha, None), "ell": (_at_least(1, "ell"), 1), "gamma": (float, None),
    "delta_range": (_delta_range, [2, 3, 4]), "sweep": (_sweep, REQUIRED),
    "shape": (tuple(_SHAPE_KEYS), REQUIRED), "delta": (_at_least(2, "tree.delta"), REQUIRED),
    "depth": (_at_least(1, "tree.depth"), REQUIRED),
    "n_edges": (_at_least(1, "tree.n_edges"), REQUIRED), "file": (str, REQUIRED),
    "param": (str, REQUIRED), "values": (list, REQUIRED),
}


def _typed(doc, keys, where, prefix=""):
    """The fields ``keys`` of the mapping ``doc``, named ``prefix + key`` and
    typed by ``_FIELDS`` in its order; any other key of ``doc`` is refused."""
    if unknown := set(doc) - keys:
        raise ConfigError(f"unknown {where} fields: {sorted(unknown, key=str)}")
    typed = {}
    for key, (kind, default) in _FIELDS.items():
        if key not in keys:
            continue
        name, value = prefix + key, doc.get(key)
        if value is None and default is REQUIRED:
            raise ConfigError(f"{name} is required")
        if isinstance(kind, tuple) and value not in (None, *kind):
            absent = "" if default is REQUIRED else " or absent"
            raise ConfigError(f"{name} must be {' or '.join(kind)}{absent}, not {value!r}")
        if value is None or isinstance(kind, tuple):
            typed[key] = default if value is None else value
        else:
            typed[key] = _field(value, name, kind) if kind in _FIELD_KINDS else kind(value)
    return typed


def _instance(cfg):
    tree, q, preset = cfg["tree"], cfg["q"], cfg["lists"]
    if preset == "pinned_root":
        return tree, pinned_root_lists(tree, q, cfg["pinned_color"])
    return tree, (uniform_lists if preset == "uniform" else star_root_lists)(tree, q)


def cmd_enumerate(cfg, raw):
    tree, lists = _instance(cfg)
    dist = oracle.enumerate_colorings(
        tree, lists, cap=cfg["caps"].get("enumeration", oracle.ENUMERATION_CAP))
    doc = dist.export(include_states=cfg["include_states"])
    return doc, f"{dist.size} proper colorings", None


def cmd_count(cfg, raw):
    tree, lists = _instance(cfg)
    # str() of an int raises past sys.get_int_max_str_digits() digits (4300
    # by default); Decimal prints them all.
    n = str(decimal.Decimal(oracle.count_colorings(tree, lists)))
    return {"tree_hash": tree.content_hash(), "count": n}, n, None


def _spectral_doc(cfg, tree, lists):
    tm = spectral.transition_matrix(tree, lists, cfg["kind"],
                                    sparse_cap=cfg["caps"].get("sparse", spectral.SPARSE_CAP))
    rep = (spectral.spectral_report(tm) if cfg["seed"] is None
           else spectral.spectral_report(tm, seed=cfg["seed"]))
    doc = dict(rep.export(), tree_hash=tree.content_hash(), kind=cfg["kind"], q=lists.q)
    return tm, rep, doc


def cmd_gap(cfg, raw):
    tm, rep, doc = _spectral_doc(cfg, *_instance(cfg))
    return doc, f"N={tm.n} t_rel={rep.t_rel:.6g}", None


def cmd_mix(cfg, raw):
    eps = cfg["eps"]
    tm, rep, doc = _spectral_doc(cfg, *_instance(cfg))
    t_mix = spectral.mixing_time(tm, eps, cap=cfg["caps"].get("mixing", spectral.MIXING_CAP))
    bound = rep.t_rel * (1.0 + tm.dist.tree.n_edges * math.log(tm.dist.lists.q))
    doc.update({"eps": eps, "t_mix": t_mix, "t_rel_bound": bound,
                "t_mix_starts": len(tm.starts)})
    failure = "relaxation-time bound violated" if eps == 0.25 and t_mix > bound else None
    return doc, f"t_mix({eps})={t_mix} bound={bound:.3f}", failure


def cmd_conductance(cfg, raw):
    tm, rep, doc = _spectral_doc(cfg, *_instance(cfg))
    phi, cut = spectral.conductance_star(tm)
    sandwich_ok = (phi * phi / 2.0 <= 1.0 / rep.t_rel + 1e-12
                   and 1.0 / rep.t_rel <= 2.0 * phi + 1e-12)
    doc.update({"phi_upper": phi, "best_cut": cut,
                "cheeger_sandwich_ok": sandwich_ok})
    failure = None if sandwich_ok else "Cheeger sandwich phi^2/2 <= 1/t_rel <= 2 phi fails"
    return doc, f"phi<={phi:.6g} via {cut}", failure


def cmd_lowerbound(cfg, raw):
    tree = cfg["tree"]
    rec = spectral.lower_bound_check(tree, cfg["edge"], cfg["q"])
    failures = spectral.lower_bound_failures(rec)
    relation = "<" if any(f.startswith("T_rel") for f in failures) else ">="
    if not cfg["strict"]:
        failures = [f for f in failures if not f.startswith("frozen probability")]
    doc = dict(rec, tree_hash=tree.content_hash())
    if failures:
        doc["verification_error"] = failures[0]
    summary = (f"p_exact={rec['p_frozen_exact']:.6g} "
               f"p_formula={rec['p_frozen_formula']:.6g} "
               f"t_rel={rec['t_rel']:.4g} {relation} {rec['trel_bound']:.4g}")
    return doc, summary, doc.get("verification_error")


def cmd_congestion(cfg, raw):
    tree, lists = _instance(cfg)
    rep = canonical.compute_congestion(tree, lists, cfg["paths"])
    doc = rep.export()
    doc["xi_root_restricted"] = [rep.xi(t, root_restricted=True)
                                 for t in range(tree.max_level + 1)]
    return doc, f"xi={doc['xi']}", None


def cmd_tensorize(cfg, raw):
    alpha, failure = cfg["alpha"], None
    tree, lists = _instance(cfg)
    dist = oracle.enumerate_colorings(tree, lists)
    c_single = tz.optimal_at_constant(dist, tz.singleton_blocks(tree))
    doc = {"tree_hash": tree.content_hash(), "at_constant_singletons": c_single}
    if cfg["blocks"] == "pairs":
        doc["at_constant_pairs"] = tz.optimal_at_constant(
            dist, dynamics.pair_blocks(tree))
    if alpha is not None:
        cert = tz.check_root_tensorization(tree, lists, alpha)
        doc["root_tensorization"] = cert.export(
            instance=tree.content_hash(), inequality="root-tensorization")
        if not cert.ok:
            failure = "root-tensorization certificate fails"
    return doc, f"C={c_single:.6g}", failure


def cmd_induction(cfg, raw):
    tree, q, ell, alpha, gamma = cfg["tree"], cfg["q"], cfg["ell"], cfg["alpha"], cfg["gamma"]
    if raw["tree"]["shape"] != "complete_regular":
        raise ConfigError("induction expects a complete_regular tree")
    delta = raw["tree"]["delta"]  # typed with the tree
    if gamma is None:
        gamma = float(tz.gamma_constant(delta, q, ell))
    if alpha is None:
        star = build_hanging_root(delta, ell)
        alpha = canonical.compute_congestion(
            star, star_root_lists(star, q), canonical.GLAUBER_PATHS).alpha_vector()
    res = tz.verify_induction(tree, uniform_lists(tree, q), ell, alpha, gamma)
    doc = {
        "tree_hash": tree.content_hash(),
        "alpha": list(alpha), "gamma": gamma,
        "constants": {str(t): c for t, c in res["constants"].items()},
        "certificate": res["certificate"].export(
            instance=tree.content_hash(), inequality="per-level variance"),
    }
    failure = None if res["ok"] else "per-level variance certificate fails"
    return doc, f"ok={res['ok']} constants={doc['constants']}", failure


def cmd_star_analysis(cfg, raw):
    import numpy as np

    rows, bad = [], []
    for delta in cfg["delta_range"]:
        psi = spectral.star_correlation_matrix(delta)
        closed = spectral.star_correlation_closed_form(delta)
        walk = spectral.star_local_walk(delta)
        q = delta + 1
        n = delta * q
        ident = (delta - 1) * walk - np.ones((n, n)) / q + np.eye(n)
        lmax = float(np.linalg.eigvalsh(psi)[-1])
        const = spectral.local_to_global_constant(delta)
        row = {
            "delta": delta,
            "closed_form_err": float(np.max(np.abs(psi - closed))),
            "identity_err": float(np.max(np.abs(psi - ident))),
            "lambda_max": lmax,
            "lambda_max_bound": 1.0 + 1.0 / delta,
            "local_to_global": const,
        }
        if not (row["closed_form_err"] <= 1e-12 and row["identity_err"] <= 1e-12
                and lmax <= row["lambda_max_bound"] + 1e-9
                and const <= math.exp(math.pi ** 2 / 6) + 1e-9):
            bad.append(delta)
        rows.append(row)
    failure = f"star identities or bounds fail at delta {bad}" if bad else None
    return {"stars": rows}, f"deltas={cfg['delta_range']} ok={not bad}", failure


def cmd_sweep(cfg, raw):
    param, values, subs = cfg["sweep"]["param"], cfg["sweep"]["values"], []
    for value in values:  # every swept config is typed before the first solve
        sub = {k: v for k, v in raw.items() if k != "sweep"}
        if param in _COMMAND_KEYS["gap"]:  # a swept tree replaces the whole tree section
            sub[param] = value
        else:
            sub["tree"] = {**raw["tree"], param: value}
        sub = _typed(sub, _COMMAND_KEYS["gap"], "gap config")
        subs.append((sub, _instance(sub)))
    rows = []
    for value, (sub, instance) in zip(values, subs):
        tm, rep, doc = _spectral_doc(sub, *instance)
        n_edges = tm.dist.tree.n_edges
        rows.append({param: value, "tree_hash": doc["tree_hash"],
                     "n_edges": n_edges, "N": tm.n, "t_rel": rep.t_rel,
                     "t_rel_per_edge": rep.t_rel / n_edges})
    with _open_output(os.path.join(cfg["out"], "sweep.csv"), newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        # a swept mapping or list is written as JSON, as in sweep.json
        writer.writerows({**row, param: json.dumps(row[param])}
                         if isinstance(row[param], (dict, list)) else row for row in rows)
    return {"rows": rows}, f"{len(rows)} rows", None


COMMANDS = {"enumerate": cmd_enumerate, "count": cmd_count, "gap": cmd_gap, "mix": cmd_mix,
            "conductance": cmd_conductance, "lowerbound": cmd_lowerbound,
            "congestion": cmd_congestion, "tensorize": cmd_tensorize,
            "induction": cmd_induction, "star-analysis": cmd_star_analysis, "sweep": cmd_sweep}


_PARSER = argparse.ArgumentParser(
    prog="treecolor",
    description="exact verification pipelines for edge-coloring chains on trees")
_PARSER.add_argument("command", choices=sorted(COMMANDS))
_PARSER.add_argument("--config", required=True)
_PARSER.add_argument("--out", default=None)
_PARSER.add_argument("--seed", type=int, default=None)


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        raw = load_config(args.config, {"seed": args.seed, "out": args.out})
        cfg = _typed(raw, _COMMAND_KEYS[args.command], f"{args.command} config")
        if cfg["command"] not in (None, args.command):
            raise ConfigError(
                f"config declares command {cfg['command']!r}, invoked {args.command!r}")
        out = cfg["out"]
        path = os.path.join(out, args.command.replace("-", "_") + ".json")
        if os.path.exists(out) and not os.path.isdir(out):  # refused before the work
            raise ConfigError(f"cannot write {path}: {out} is not a directory")
        doc, summary, failure = COMMANDS[args.command](cfg, raw)
        doc["config"] = {k: v for k, v in raw.items() if k != "out"}
        with _open_output(path) as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"{args.command}: {summary} -> {path}")
        if failure is not None:
            print(f"{args.command}: FAILED ({failure})", file=sys.stderr)
            return 4
        return 0
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4
    except TreecolorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
