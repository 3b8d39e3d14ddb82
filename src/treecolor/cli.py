"""Configuration-driven experiment harness.

Usage::

    treecolor <command> --config <file> [--out <dir>] [--seed <u64>]

Commands read a YAML config (strict keys, flags override file values), run
one module pipeline, write JSON/CSV artifacts into the output directory and
print a one-line summary.  Exit codes: 0 success, 2 config error, 3 capacity
exceeded, 4 a checked inequality failed.
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

_TOP_KEYS = {
    "command", "tree", "q", "lists", "pinned_color", "kind", "seed", "caps",
    "out", "eps", "edge", "paths", "alpha", "gamma", "ell", "blocks",
    "strict", "sweep", "delta_range", "include_states",
}
_TREE_KEYS = {"shape", "delta", "depth", "n_edges", "file"}


def _check_keys(doc, allowed, where):
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} fields: {sorted(unknown)}")


def load_config(path, overrides):
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh) or {}
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping")
    _check_keys(doc, _TOP_KEYS, "config")
    if not isinstance(doc.get("caps") or {}, dict):
        raise ConfigError("caps must be a mapping")
    doc.update({k: v for k, v in overrides.items() if v is not None})
    return doc


def build_tree(spec):
    if not isinstance(spec, dict):
        raise ConfigError("tree section must be a mapping")
    _check_keys(spec, _TREE_KEYS, "tree")
    shape = spec.get("shape")
    if shape == "complete_regular":
        return build_complete_regular(int(spec["delta"]), int(spec["depth"]))
    if shape == "hanging_root":
        return build_hanging_root(int(spec["delta"]), int(spec["depth"]))
    if shape == "path":
        n = int(spec["n_edges"])
        if n < 1:
            raise ConfigError("path needs n_edges >= 1")
        return tree_from_parents([None] + list(range(n)), 0)
    if shape == "file":
        return load_tree(spec["file"])
    raise ConfigError(f"unknown tree shape {shape!r}")


def build_lists(tree, cfg):
    q = int(cfg.get("q", 0))
    if q < 1:
        raise ConfigError("config needs a positive q")
    preset = cfg.get("lists", "uniform")
    if preset == "uniform":
        return uniform_lists(tree, q)
    if preset == "star_root":
        return star_root_lists(tree, q)
    if preset == "pinned_root":
        return pinned_root_lists(tree, q, int(cfg.get("pinned_color", 1)))
    raise ConfigError(f"unknown list preset {preset!r}")


def _kind(cfg):
    kind = cfg.get("kind", dynamics.HEATBATH_GLAUBER)
    if kind not in (dynamics.UNIFORM_GLAUBER, dynamics.HEATBATH_GLAUBER,
                    dynamics.NEIGHBOR_PAIR):
        raise ConfigError(f"unknown chain kind {kind!r}")
    return kind


def _cap(cfg, name, default):
    return int((cfg.get("caps") or {}).get(name, default))


def _write_json(out_dir, name, doc):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    return path


def _base_doc(cfg, tree):
    return {"config": {k: v for k, v in cfg.items() if k != "out"},
            "tree_hash": tree.content_hash()}


def cmd_enumerate(cfg, out):
    tree = build_tree(cfg["tree"])
    lists = build_lists(tree, cfg)
    dist = oracle.enumerate_colorings(
        tree, lists, cap=_cap(cfg, "enumeration", oracle.ENUMERATION_CAP))
    doc = _base_doc(cfg, tree)
    doc.update(dist.export(include_states=bool(cfg.get("include_states", False))))
    path = _write_json(out, "enumerate.json", doc)
    print(f"enumerate: {dist.size} proper colorings -> {path}")
    return 0


def cmd_count(cfg, out):
    tree = build_tree(cfg["tree"])
    lists = build_lists(tree, cfg)
    # str() of an int raises past sys.get_int_max_str_digits() digits (4300
    # by default); Decimal prints them all.
    n = str(decimal.Decimal(oracle.count_colorings(tree, lists)))
    doc = _base_doc(cfg, tree)
    doc["count"] = n
    path = _write_json(out, "count.json", doc)
    print(f"count: {n} -> {path}")
    return 0


def _spectral_doc(cfg, tree, lists, kind):
    tm = spectral.transition_matrix(
        tree, lists, kind, sparse_cap=_cap(cfg, "sparse", spectral.SPARSE_CAP))
    seed = cfg.get("seed")
    rep = (spectral.spectral_report(tm) if seed is None
           else spectral.spectral_report(tm, seed=int(seed)))
    doc = _base_doc(cfg, tree)
    doc.update({"kind": kind, "q": lists.q, "N": tm.n,
                "lambda2": rep.lambda2, "lambda_min": rep.lambda_min,
                "t_rel": rep.t_rel, "method": rep.method,
                "residual": rep.residual, "matvecs": rep.matvecs})
    return tm, rep, doc


def cmd_gap(cfg, out):
    tree = build_tree(cfg["tree"])
    lists = build_lists(tree, cfg)
    tm, rep, doc = _spectral_doc(cfg, tree, lists, _kind(cfg))
    path = _write_json(out, "gap.json", doc)
    print(f"gap: N={tm.n} t_rel={rep.t_rel:.6g} -> {path}")
    return 0


def cmd_mix(cfg, out):
    tree = build_tree(cfg["tree"])
    lists = build_lists(tree, cfg)
    kind = _kind(cfg)
    tm, rep, doc = _spectral_doc(cfg, tree, lists, kind)
    eps = float(cfg.get("eps", 0.25))
    t_mix = spectral.mixing_time(tm, eps, cap=_cap(cfg, "mixing", spectral.MIXING_CAP))
    bound = rep.t_rel * (1.0 + tree.n_edges * math.log(lists.q))
    doc.update({"eps": eps, "t_mix": t_mix, "t_rel_bound": bound,
                "t_mix_starts": len(tm.starts)})
    path = _write_json(out, "mix.json", doc)
    print(f"mix: t_mix({eps})={t_mix} bound={bound:.3f} -> {path}")
    if eps == 0.25 and t_mix > bound:
        print("mix: relaxation-time bound violated", file=sys.stderr)
        return 4
    return 0


def cmd_conductance(cfg, out):
    tree = build_tree(cfg["tree"])
    lists = build_lists(tree, cfg)
    tm, rep, doc = _spectral_doc(cfg, tree, lists, _kind(cfg))
    phi, cut = spectral.conductance_star(tm)
    doc.update({"phi_upper": phi, "best_cut": cut})
    sandwich_ok = (phi * phi / 2.0 <= 1.0 / rep.t_rel + 1e-12
                   and 1.0 / rep.t_rel <= 2.0 * phi + 1e-12)
    doc["cheeger_sandwich_ok"] = sandwich_ok
    path = _write_json(out, "conductance.json", doc)
    print(f"conductance: phi<={phi:.6g} via {cut} -> {path}")
    return 0 if sandwich_ok else 4


def cmd_lowerbound(cfg, out):
    tree = build_tree(cfg["tree"])
    q = int(cfg["q"])
    edge = int(cfg.get("edge", 0))
    strict = bool(cfg.get("strict", True))
    rec = spectral.lower_bound_check(tree, edge, q)
    failures = spectral.lower_bound_failures(rec) if strict else []
    doc = _base_doc(cfg, tree)
    doc.update(rec)
    if failures:
        doc["verification_error"] = failures[0]
        _write_json(out, "lowerbound.json", doc)
        print(f"lowerbound: FAILED ({failures[0]})", file=sys.stderr)
        return 4
    path = _write_json(out, "lowerbound.json", doc)
    print(f"lowerbound: p_exact={rec['p_frozen_exact']:.6g} "
          f"p_formula={rec['p_frozen_formula']:.6g} "
          f"t_rel={rec['t_rel']:.4g} >= {rec['trel_bound']:.4g} -> {path}")
    if rec["t_rel"] < rec["trel_bound"] - 1e-9:
        return 4
    return 0


def cmd_congestion(cfg, out):
    tree = build_tree(cfg["tree"])
    lists = build_lists(tree, cfg)
    path_kind = cfg.get("paths", canonical.GLAUBER_PATHS)
    if path_kind not in (canonical.GLAUBER_PATHS, canonical.EDGE_PATHS):
        raise ConfigError(f"unknown path family {path_kind!r}")
    rep = canonical.compute_congestion(tree, lists, path_kind)
    doc = _base_doc(cfg, tree)
    doc.update(rep.export())
    doc["xi_root_restricted"] = [rep.xi(t, root_restricted=True)
                                 for t in range(tree.max_level + 1)]
    path = _write_json(out, "congestion.json", doc)
    print(f"congestion: xi={doc['xi']} -> {path}")
    return 0


def cmd_tensorize(cfg, out):
    tree = build_tree(cfg["tree"])
    lists = build_lists(tree, cfg)
    dist = oracle.enumerate_colorings(tree, lists)
    doc = _base_doc(cfg, tree)
    c_single = tz.optimal_at_constant(dist, tz.singleton_blocks(tree))
    doc["at_constant_singletons"] = c_single
    if cfg.get("blocks") == "pairs":
        doc["at_constant_pairs"] = tz.optimal_at_constant(
            dist, dynamics.pair_blocks(tree))
    alpha = cfg.get("alpha")
    verdicts = []
    if alpha is not None:
        cert = tz.check_root_tensorization(tree, lists, [float(x) for x in alpha])
        doc["root_tensorization"] = cert.export(
            instance=tree.content_hash(), inequality="root-tensorization")
        verdicts.append(cert.ok)
    path = _write_json(out, "tensorize.json", doc)
    print(f"tensorize: C={c_single:.6g} -> {path}")
    return 0 if all(verdicts) else 4


def cmd_induction(cfg, out):
    tree_cfg = cfg["tree"]
    tree = build_tree(tree_cfg)
    if tree_cfg["shape"] != "complete_regular":
        raise ConfigError("induction expects a complete_regular tree")
    delta = int(tree_cfg["delta"])
    ell = int(cfg.get("ell", 1))
    q = int(cfg["q"])
    alpha, gamma = cfg.get("alpha"), cfg.get("gamma")
    if alpha is None:
        star = build_hanging_root(delta, ell)
        alpha = canonical.compute_congestion(
            star, star_root_lists(star, q), canonical.GLAUBER_PATHS).alpha_vector()
    gamma = float(tz.gamma_constant(delta, q, ell) if gamma is None else gamma)
    res = tz.verify_induction(tree, uniform_lists(tree, q), ell,
                              [float(x) for x in alpha], gamma)
    doc = _base_doc(cfg, tree)
    doc.update({
        "alpha": list(alpha), "gamma": gamma,
        "constants": {str(t): c for t, c in res["constants"].items()},
        "certificate": res["certificate"].export(
            instance=tree.content_hash(), inequality="per-level variance"),
    })
    path = _write_json(out, "induction.json", doc)
    print(f"induction: ok={res['ok']} constants={doc['constants']} -> {path}")
    return 0 if res["ok"] else 4


def cmd_star_analysis(cfg, out):
    import numpy as np

    deltas = cfg.get("delta_range") or [2, 3, 4]
    rows = []
    ok = True
    for delta in deltas:
        delta = int(delta)
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
        row_ok = (row["closed_form_err"] <= 1e-12 and row["identity_err"] <= 1e-12
                  and lmax <= row["lambda_max_bound"] + 1e-9
                  and const <= math.exp(math.pi ** 2 / 6) + 1e-9)
        ok = ok and row_ok
        rows.append(row)
    doc = {"config": {k: v for k, v in cfg.items() if k != "out"}, "stars": rows}
    path = _write_json(out, "star_analysis.json", doc)
    print(f"star-analysis: deltas={list(deltas)} ok={ok} -> {path}")
    return 0 if ok else 4


def cmd_sweep(cfg, out):
    spec = cfg.get("sweep")
    if not isinstance(spec, dict) or "param" not in spec or not spec.get("values"):
        raise ConfigError("sweep needs {param, values, command}, with at least one value")
    _check_keys(spec, {"param", "values", "command"}, "sweep")
    sub = spec.get("command", "gap")
    if sub != "gap":
        raise ConfigError("sweep currently drives the gap command")
    param = spec["param"]
    rows = []
    for value in spec["values"]:
        sub_cfg = {k: v for k, v in cfg.items() if k not in ("sweep",)}
        tree_cfg = dict(sub_cfg.get("tree", {}))
        if param in _TREE_KEYS:
            tree_cfg[param] = value
        elif param in _TOP_KEYS:
            sub_cfg[param] = value
        else:
            raise ConfigError(f"cannot sweep over {param!r}")
        sub_cfg["tree"] = tree_cfg
        tree = build_tree(tree_cfg)
        lists = build_lists(tree, sub_cfg)
        tm, rep, _doc = _spectral_doc(sub_cfg, tree, lists, _kind(sub_cfg))
        rows.append({param: value, "tree_hash": tree.content_hash(),
                     "n_edges": tree.n_edges, "N": tm.n,
                     "t_rel": rep.t_rel,
                     "t_rel_per_edge": rep.t_rel / tree.n_edges})
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "sweep.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    _write_json(out, "sweep.json",
                {"config": {k: v for k, v in cfg.items() if k != "out"},
                 "rows": rows})
    print(f"sweep: {len(rows)} rows -> {path}")
    return 0


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


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="treecolor",
        description="exact verification pipelines for edge-coloring chains on trees")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, {"seed": args.seed, "out": args.out})
        declared = cfg.get("command")
        if declared is not None and declared != args.command:
            raise ConfigError(
                f"config declares command {declared!r}, invoked {args.command!r}")
        out = cfg.get("out") or "results"
        return COMMANDS[args.command](cfg, out)
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
