"""Configuration-driven experiment harness.

Usage::

    treecolor <command> --config <file> [--out <dir>] [--seed <u64>]

Commands read a YAML config (a key the command does not read is an error,
flags override file values; an ``--out`` that is no directory is refused
first), run one module pipeline and return
``(doc, summary, failure)``.  ``main`` alone adds the config echo, dumps
``doc`` to ``<command>.json`` (``-`` becomes ``_``) and prints
``<command>: <summary> -> <path>``; ``sweep`` also writes ``sweep.csv``.
Spectral docs hold ``SpectralReport.export()``, ``gap`` too.
Exit codes: 0 success, 2 config error, 3 capacity exceeded, 4 a checked
inequality failed; stderr then names it, as ``<command>: FAILED (<failure>)``
or, when the pipeline raises, ``verification failure: <message>``.
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
_TREE_KEYS = {"shape", "delta", "depth", "n_edges", "file"}


def _check_keys(doc, allowed, where):
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} fields: {sorted(unknown)}")


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
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}")


_FIELD_KINDS = {int: (int, "an integer"), float: ((int, float), "a number"),
                bool: (bool, "a boolean"), list: (list, "a nonempty list"),
                str: (str, "a nonempty string")}


def _field(value, name, kind=int, positive=False):
    """The config field ``name`` as a ``kind``: an int field takes only ints,
    a float field ints and floats (returned as a float), a bool, list or str
    field only booleans, nonempty lists or nonempty strings.  YAML reads
    ``true`` as a boolean and ``"2"`` as a string, so neither is a number;
    with ``positive`` anything below 1 is refused too."""
    types, noun = _FIELD_KINDS[kind]
    if (isinstance(value, bool) != (kind is bool) or not isinstance(value, types)
            or (positive and value < 1) or value in ([], "")):
        raise ConfigError(f"{name} must be {'a positive integer' if positive else noun}, "
                          f"not {value!r}")
    return kind(value)


def build_tree(spec):
    if not isinstance(spec, dict):
        raise ConfigError("tree section must be a mapping")
    _check_keys(spec, _TREE_KEYS, "tree")
    shape = spec.get("shape")
    if shape in ("complete_regular", "hanging_root"):
        build = build_complete_regular if shape == "complete_regular" else build_hanging_root
        return build(_field(spec["delta"], "tree.delta"),
                     _field(spec["depth"], "tree.depth"))
    if shape == "path":
        n = _field(spec["n_edges"], "tree.n_edges")
        if n < 1:
            raise ConfigError("path needs n_edges >= 1")
        return tree_from_parents([None] + list(range(n)), 0)
    if shape == "file":
        try:
            return load_tree(spec["file"])
        except OSError as exc:
            raise ConfigError(f"cannot read tree file {spec['file']}: {exc}")
    raise ConfigError(f"unknown tree shape {shape!r}")


def build_lists(tree, cfg):
    q = _field(cfg.get("q", 0), "q")
    if q < 1:
        raise ConfigError("config needs a positive q")
    preset = cfg.get("lists", "uniform")
    if preset == "uniform":
        return uniform_lists(tree, q)
    if preset == "star_root":
        return star_root_lists(tree, q)
    if preset == "pinned_root":
        return pinned_root_lists(tree, q, _field(cfg.get("pinned_color", 1), "pinned_color"))
    raise ConfigError(f"unknown list preset {preset!r}")


def _kind(cfg):
    kind = cfg.get("kind", dynamics.HEATBATH_GLAUBER)
    if kind not in (dynamics.UNIFORM_GLAUBER, dynamics.HEATBATH_GLAUBER,
                    dynamics.NEIGHBOR_PAIR):
        raise ConfigError(f"unknown chain kind {kind!r}")
    return kind


def _cap(cfg, name, default):
    caps = {} if cfg.get("caps") is None else cfg["caps"]
    if not isinstance(caps, dict):
        raise ConfigError(f"caps must be a mapping, not {caps!r}")
    return _field(caps.get(name, default), f"caps.{name}", positive=True)


def _instance(cfg):
    tree = build_tree(cfg["tree"])
    return tree, build_lists(tree, cfg)


def cmd_enumerate(cfg, out):
    include_states = _field(cfg.get("include_states", False), "include_states", bool)
    tree, lists = _instance(cfg)
    dist = oracle.enumerate_colorings(
        tree, lists, cap=_cap(cfg, "enumeration", oracle.ENUMERATION_CAP))
    doc = dist.export(include_states=include_states)
    return doc, f"{dist.size} proper colorings", None


def cmd_count(cfg, out):
    tree, lists = _instance(cfg)
    # str() of an int raises past sys.get_int_max_str_digits() digits (4300
    # by default); Decimal prints them all.
    n = str(decimal.Decimal(oracle.count_colorings(tree, lists)))
    return {"tree_hash": tree.content_hash(), "count": n}, n, None


def _spectral_inputs(cfg):
    """The typed inputs of a spectral pipeline: tree, lists, kind, sparse cap
    and seed (None for the default)."""
    tree, lists = _instance(cfg)
    kind = _kind(cfg)
    cap = _cap(cfg, "sparse", spectral.SPARSE_CAP)
    seed = cfg.get("seed")
    return tree, lists, kind, cap, None if seed is None else _field(seed, "seed")


def _spectral_doc(inputs):
    tree, lists, kind, cap, seed = inputs
    tm = spectral.transition_matrix(tree, lists, kind, sparse_cap=cap)
    rep = (spectral.spectral_report(tm) if seed is None
           else spectral.spectral_report(tm, seed=seed))
    doc = dict(rep.export(), tree_hash=tree.content_hash(), kind=kind, q=lists.q)
    return tm, rep, doc


def cmd_gap(cfg, out):
    tm, rep, doc = _spectral_doc(_spectral_inputs(cfg))
    return doc, f"N={tm.n} t_rel={rep.t_rel:.6g}", None


def cmd_mix(cfg, out):
    eps = _field(cfg.get("eps", 0.25), "eps", float)
    if not 1e-9 <= eps < 1:  # a total-variation distance never exceeds 1
        raise ConfigError(f"eps must lie in [1e-9, 1), not {eps!r}")
    tm, rep, doc = _spectral_doc(_spectral_inputs(cfg))
    t_mix = spectral.mixing_time(tm, eps, cap=_cap(cfg, "mixing", spectral.MIXING_CAP))
    bound = rep.t_rel * (1.0 + tm.dist.tree.n_edges * math.log(tm.dist.lists.q))
    doc.update({"eps": eps, "t_mix": t_mix, "t_rel_bound": bound,
                "t_mix_starts": len(tm.starts)})
    failure = "relaxation-time bound violated" if eps == 0.25 and t_mix > bound else None
    return doc, f"t_mix({eps})={t_mix} bound={bound:.3f}", failure


def cmd_conductance(cfg, out):
    tm, rep, doc = _spectral_doc(_spectral_inputs(cfg))
    phi, cut = spectral.conductance_star(tm)
    sandwich_ok = (phi * phi / 2.0 <= 1.0 / rep.t_rel + 1e-12
                   and 1.0 / rep.t_rel <= 2.0 * phi + 1e-12)
    doc.update({"phi_upper": phi, "best_cut": cut,
                "cheeger_sandwich_ok": sandwich_ok})
    failure = None if sandwich_ok else "Cheeger sandwich phi^2/2 <= 1/t_rel <= 2 phi fails"
    return doc, f"phi<={phi:.6g} via {cut}", failure


def cmd_lowerbound(cfg, out):
    strict = _field(cfg.get("strict", True), "strict", bool)
    tree = build_tree(cfg["tree"])
    rec = spectral.lower_bound_check(tree, _field(cfg.get("edge", 0), "edge"),
                                     _field(cfg["q"], "q"))
    failures = spectral.lower_bound_failures(rec)
    relation = "<" if any(f.startswith("T_rel") for f in failures) else ">="
    if not strict:
        failures = [f for f in failures if not f.startswith("frozen probability")]
    doc = dict(rec, tree_hash=tree.content_hash())
    if failures:
        doc["verification_error"] = failures[0]
    summary = (f"p_exact={rec['p_frozen_exact']:.6g} "
               f"p_formula={rec['p_frozen_formula']:.6g} "
               f"t_rel={rec['t_rel']:.4g} {relation} {rec['trel_bound']:.4g}")
    return doc, summary, doc.get("verification_error")


def cmd_congestion(cfg, out):
    tree, lists = _instance(cfg)
    path_kind = cfg.get("paths", canonical.GLAUBER_PATHS)
    if path_kind not in (canonical.GLAUBER_PATHS, canonical.EDGE_PATHS):
        raise ConfigError(f"unknown path family {path_kind!r}")
    rep = canonical.compute_congestion(tree, lists, path_kind)
    doc = rep.export()
    doc["xi_root_restricted"] = [rep.xi(t, root_restricted=True)
                                 for t in range(tree.max_level + 1)]
    return doc, f"xi={doc['xi']}", None


def _alpha(cfg):
    """The config's ``alpha`` as floats, None if it gives none."""
    alpha = cfg.get("alpha")
    if alpha is not None and not isinstance(alpha, list):
        raise ConfigError(f"alpha must be a list of per-level weights, not {alpha!r}")
    return None if alpha is None else [_field(x, f"alpha[{i}]", float)
                                       for i, x in enumerate(alpha)]


def cmd_tensorize(cfg, out):
    blocks, alpha, failure = cfg.get("blocks"), _alpha(cfg), None
    if blocks not in (None, "pairs"):
        raise ConfigError(f"blocks must be pairs or absent, not {blocks!r}")
    tree, lists = _instance(cfg)
    dist = oracle.enumerate_colorings(tree, lists)
    c_single = tz.optimal_at_constant(dist, tz.singleton_blocks(tree))
    doc = {"tree_hash": tree.content_hash(), "at_constant_singletons": c_single}
    if blocks == "pairs":
        doc["at_constant_pairs"] = tz.optimal_at_constant(
            dist, dynamics.pair_blocks(tree))
    if alpha is not None:
        cert = tz.check_root_tensorization(tree, lists, alpha)
        doc["root_tensorization"] = cert.export(
            instance=tree.content_hash(), inequality="root-tensorization")
        if not cert.ok:
            failure = "root-tensorization certificate fails"
    return doc, f"C={c_single:.6g}", failure


def cmd_induction(cfg, out):
    tree_cfg = cfg["tree"]
    tree = build_tree(tree_cfg)
    if tree_cfg["shape"] != "complete_regular":
        raise ConfigError("induction expects a complete_regular tree")
    delta = tree_cfg["delta"]  # checked by build_tree
    ell = _field(cfg.get("ell", 1), "ell")
    q = _field(cfg["q"], "q")
    alpha, gamma = _alpha(cfg), cfg.get("gamma")
    gamma = (float(tz.gamma_constant(delta, q, ell)) if gamma is None
             else _field(gamma, "gamma", float))
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


def cmd_star_analysis(cfg, out):
    import numpy as np

    deltas = _field(cfg.get("delta_range", [2, 3, 4]), "delta_range", list)
    rows, bad = [], []
    for i, delta in enumerate(deltas):
        delta = _field(delta, f"delta_range[{i}]")
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
    return {"stars": rows}, f"deltas={list(deltas)} ok={not bad}", failure


def cmd_sweep(cfg, out):
    spec = cfg.get("sweep")
    if not isinstance(spec, dict) or "param" not in spec or "values" not in spec:
        raise ConfigError("sweep needs {param, values, command}")
    _check_keys(spec, {"param", "values", "command"}, "sweep")
    if spec.get("command", "gap") != "gap":
        raise ConfigError("sweep currently drives the gap command")
    param = spec["param"]
    if param in ("command", "out") or param not in _TREE_KEYS | _COMMAND_KEYS["gap"]:
        raise ConfigError(f"cannot sweep over {param!r}")
    values, inputs = _field(spec["values"], "sweep.values", list), []
    for value in values:  # every swept config is typed before the first solve
        sub_cfg = {k: v for k, v in cfg.items() if k != "sweep"}
        if param in _TREE_KEYS:
            sub_cfg["tree"] = dict(cfg.get("tree", {}), **{param: value})
        else:  # a swept tree replaces the whole tree section
            sub_cfg[param] = value
        inputs.append(_spectral_inputs(sub_cfg))
    rows = []
    for value, sub_inputs in zip(values, inputs):
        tm, rep, doc = _spectral_doc(sub_inputs)
        n_edges = tm.dist.tree.n_edges
        rows.append({param: value, "tree_hash": doc["tree_hash"],
                     "n_edges": n_edges, "N": tm.n, "t_rel": rep.t_rel,
                     "t_rel_per_edge": rep.t_rel / n_edges})
    with _open_output(os.path.join(out, "sweep.csv"), newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        # a swept mapping or list is written as JSON, as in sweep.json
        writer.writerows({**row, param: json.dumps(row[param])}
                         if isinstance(row[param], (dict, list)) else row for row in rows)
    return {"rows": rows}, f"{len(rows)} rows", None


COMMANDS = {
    "enumerate": cmd_enumerate,
    "count": cmd_count,
    "gap": cmd_gap,
    "mix": cmd_mix,
    "conductance": cmd_conductance,
    "lowerbound": cmd_lowerbound,
    "congestion": cmd_congestion,
    "tensorize": cmd_tensorize,
    "induction": cmd_induction,
    "star-analysis": cmd_star_analysis,
    "sweep": cmd_sweep,
}


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
        cfg = load_config(args.config, {"seed": args.seed, "out": args.out})
        _check_keys(cfg, _COMMAND_KEYS[args.command], f"{args.command} config")
        declared = cfg.get("command")
        if declared is not None and declared != args.command:
            raise ConfigError(
                f"config declares command {declared!r}, invoked {args.command!r}")
        out = "results" if cfg.get("out") is None else _field(cfg["out"], "out", str)
        path = os.path.join(out, args.command.replace("-", "_") + ".json")
        if os.path.exists(out) and not os.path.isdir(out):  # refused before the work
            raise ConfigError(f"cannot write {path}: {out} is not a directory")
        doc, summary, failure = COMMANDS[args.command](cfg, out)
        doc["config"] = {k: v for k, v in cfg.items() if k != "out"}
        with _open_output(path) as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"{args.command}: {summary} -> {path}")
        if failure is not None:
            print(f"{args.command}: FAILED ({failure})", file=sys.stderr)
            return 4
        return 0
    except (ConfigError, ParameterError, KeyError, TypeError, ValueError) as exc:
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
