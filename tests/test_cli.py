import argparse
import ast
import csv
import glob
import json
import math
import os
import subprocess
import sys
import textwrap

import pytest
import yaml

import treecolor
from treecolor import cli, oracle, spectral
from treecolor.cli import load_config, main
from treecolor.colorings import uniform_lists
from treecolor.oracle import count_colorings
from treecolor.trees import build_complete_regular

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(treecolor.__file__)))


def src_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def write_cfg(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def test_gap_command(tmp_path):
    cfg = write_cfg(tmp_path, {
        "command": "gap",
        "tree": {"shape": "path", "n_edges": 1},
        "q": 3, "lists": "uniform", "kind": "HEATBATH_GLAUBER",
    })
    out = str(tmp_path / "out")
    assert main(["gap", "--config", cfg, "--out", out]) == 0
    doc = json.load(open(os.path.join(out, "gap.json")))
    assert abs(doc["t_rel"] - 1.0) < 1e-9
    assert "t_mix_quarter" not in doc
    assert "tree_hash" in doc and "config" in doc


def test_spectral_commands_report_the_solver(tmp_path, monkeypatch):
    seeds = []
    report = spectral.spectral_report

    def recording(tm, **kw):
        seeds.append(kw.get("seed"))
        return report(tm, **kw)

    monkeypatch.setattr(spectral, "spectral_report", recording)
    for command in ("gap", "mix", "conductance"):
        cfg = write_cfg(tmp_path, {
            "command": command,
            "tree": {"shape": "path", "n_edges": 4},
            "q": 3, "lists": "uniform", "kind": "HEATBATH_GLAUBER",
            "caps": {"dense": 16},  # no longer a cap; accepted and ignored
        }, name=f"{command}.yaml")
        out = str(tmp_path / command)
        assert main([command, "--config", cfg, "--out", out, "--seed", "5"]) == 0
        doc = json.load(open(os.path.join(out, f"{command}.json")))
        assert doc["method"] == "lanczos" and doc["N"] == 24
        assert 0 <= doc["residual"] <= 1e-8 and doc["matvecs"] > 0
        assert "t_mix_quarter" not in doc
    assert seeds == [5, 5, 5]


def test_config_errors(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"tree": {"shape": "mystery"}, "q": 3})
    assert main(["gap", "--config", cfg]) == 2

    cfg2 = write_cfg(tmp_path, {"tree": {"shape": "path", "n_edges": 2},
                                "q": 3, "bogus_field": 1}, "c2.yaml")
    assert main(["gap", "--config", cfg2]) == 2

    cfg3 = write_cfg(tmp_path, {"command": "count",
                                "tree": {"shape": "path", "n_edges": 2},
                                "q": 3}, "c3.yaml")
    assert main(["gap", "--config", cfg3]) == 2  # declared command mismatch

    assert main(["gap", "--config", str(tmp_path / "missing.yaml")]) == 2

    cfg4 = write_cfg(tmp_path, {"tree": {"shape": "path", "n_edges": 2},
                                "q": 3, "caps": 5}, "c4.yaml")
    assert main(["gap", "--config", cfg4]) == 2  # caps must be a mapping

    cfg5 = write_cfg(tmp_path, {"tree": {"shape": "path", "n_edges": 2},
                                "q": 3, "sweep": {"param": "q", "values": []}},
                     "c5.yaml")
    assert main(["sweep", "--config", cfg5, "--out", str(tmp_path / "o5")]) == 2

    # root-tensorization weights: one finite, nonnegative weight per level
    star = {"command": "tensorize", "tree": {"shape": "hanging_root", "delta": 2,
                                             "depth": 2},
            "q": 4, "lists": "star_root"}
    for i, alpha in enumerate(([math.nan, 1.0, 1.0], [1.0])):
        cfg6 = write_cfg(tmp_path, dict(star, alpha=alpha), f"c6_{i}.yaml")
        assert main(["tensorize", "--config", cfg6, "--out",
                     str(tmp_path / f"o6_{i}")]) == 2

    cfg7 = write_cfg(tmp_path, {"command": "induction", "tree": [1, 2], "q": 4},
                     "c7.yaml")
    assert main(["induction", "--config", cfg7, "--out", str(tmp_path / "o7")]) == 2

    cfg8 = write_cfg(tmp_path, {"tree": {"shape": "path", "n_edges": 2}, "q": 3, "out": 5},
                     "c8.yaml")
    capsys.readouterr()
    assert main(["gap", "--config", cfg8]) == 2
    assert capsys.readouterr().err == "config error: out must be a nonempty string, not 5\n"


def test_malformed_yaml_is_a_config_error(tmp_path, capsys):
    # a parser error (the brace never closed) and a scanner error (the quote
    # never closed)
    for i, text in enumerate(("tree: {shape: path, n_edges: 3\nq: 3\n",
                              'tree: {shape: path, n_edges: 3}\nq: "3\n')):
        path = tmp_path / f"bad{i}.yaml"
        path.write_text(text)
        assert main(["gap", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot read config")


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(REPO, "configs", "**", "*.yaml"),
                                                recursive=True)))
def test_configs_load_alike_under_both_yaml_loaders(path):
    # load_config takes libyaml's loader when PyYAML has it
    with open(path) as fh:
        pure = yaml.load(fh, Loader=yaml.SafeLoader)
    with open(path) as fh:
        fast = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    assert isinstance(pure, dict) and fast == pure
    assert load_config(path, {}) == pure


@pytest.mark.parametrize("lines", ["3 0\n5 0\n1 0\n", "3 0\n-1 0\n1 0\n"],
                         ids=["past_the_end", "negative"])
def test_tree_file_child_out_of_range_is_a_config_error(tmp_path, capsys, lines):
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text(lines)
    cfg = write_cfg(tmp_path, {"command": "count", "q": 3,
                               "tree": {"shape": "file", "file": str(tree_file)}})
    assert main(["count", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: malformed edge list")


@pytest.mark.parametrize("lines", ["3 5\n1 0\n2 0\n", "3 -1\n0 2\n1 2\n"],
                         ids=["past_the_end", "negative"])
def test_tree_file_root_out_of_range_is_a_config_error(tmp_path, capsys, lines):
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text(lines)
    cfg = write_cfg(tmp_path, {"command": "count", "q": 3,
                               "tree": {"shape": "file", "file": str(tree_file)}})
    assert main(["count", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: malformed tree file: root")


@pytest.mark.parametrize("make", [lambda path: None, os.mkdir], ids=["missing", "directory"])
def test_unreadable_tree_file_is_a_config_error(tmp_path, capsys, make):
    tree_file = str(tmp_path / "tree.txt")
    make(tree_file)
    cfg = write_cfg(tmp_path, {"command": "count", "q": 3,
                               "tree": {"shape": "file", "file": tree_file}})
    assert main(["count", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot read tree file {tree_file}: ")


@pytest.mark.parametrize("command, doc, name", [
    ("count", {}, "count.json"),
    ("sweep", {"sweep": {"param": "n_edges", "values": [2], "command": "gap"}}, "sweep.json"),
], ids=["json", "sweep_csv"])
def test_out_naming_a_file_is_a_config_error(tmp_path, capsys, monkeypatch, command, doc,
                                             name):
    # refused before the command runs: nothing is enumerated
    enumerated = []
    monkeypatch.setattr(oracle, "enumerate_colorings", lambda *args, **kw: enumerated.append(1))
    out = tmp_path / "out"
    out.write_text("")
    cfg = write_cfg(tmp_path, dict(doc, tree={"shape": "path", "n_edges": 2}, q=3))
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: cannot write {out / name}: {out} is not a directory\n"
    assert out.read_text() == "" and enumerated == []


@pytest.mark.parametrize("command, doc, error", [
    ("star-analysis", {"delta_range": 3}, "delta_range must be a nonempty list, not 3"),
    ("star-analysis", {"delta_range": []}, "delta_range must be a nonempty list, not []"),
    ("sweep", {"tree": {"shape": "path", "n_edges": 2}, "q": 3,
               "sweep": {"param": "n_edges", "values": 5}},
     "sweep.values must be a nonempty list, not 5"),
    ("sweep", {"tree": {"shape": "path", "n_edges": 2}, "q": 3,
               "sweep": {"param": "n_edges", "values": "46"}},
     "sweep.values must be a nonempty list, not '46'"),
], ids=["delta_range_int", "delta_range_empty", "values_int", "values_string"])
def test_list_fields_refuse_other_values(tmp_path, capsys, command, doc, error):
    cfg = write_cfg(tmp_path, dict(doc, command=command))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {error}\n"
    assert not (tmp_path / "o").exists()


def test_count_with_more_digits_than_int_str_limit(tmp_path):
    cfg = write_cfg(tmp_path, {
        "command": "count",
        "tree": {"shape": "complete_regular", "delta": 5, "depth": 6},
        "q": 7, "lists": "uniform",
    })
    out = str(tmp_path / "out")
    assert main(["count", "--config", cfg, "--out", out]) == 0
    doc = json.load(open(os.path.join(out, "count.json")))
    tree = build_complete_regular(5, 6)
    want = count_colorings(tree, uniform_lists(tree, 7))
    limit = sys.get_int_max_str_digits()
    assert len(doc["count"]) > limit
    sys.set_int_max_str_digits(0)
    try:
        assert int(doc["count"]) == want
    finally:
        sys.set_int_max_str_digits(limit)


def test_capacity_error_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, {
        "tree": {"shape": "complete_regular", "delta": 3, "depth": 2},
        "q": 5, "lists": "uniform",
        "caps": {"sparse": 100},
    })
    assert main(["gap", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("cap", [-5, 2.5, True])
def test_cap_that_is_no_positive_integer_is_a_config_error(tmp_path, capsys, cap):
    cfg = write_cfg(tmp_path, {
        "command": "enumerate", "tree": {"shape": "path", "n_edges": 2},
        "q": 3, "caps": {"enumeration": cap},
    })
    assert main(["enumerate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: caps.enumeration must be a positive integer, not {cap!r}\n")


@pytest.mark.parametrize("command, doc, field, value", [
    ("count", {"tree": {"shape": "path", "n_edges": 2.9}, "q": 3.7}, "tree.n_edges", 2.9),
    ("count", {"tree": {"shape": "path", "n_edges": True}, "q": True}, "tree.n_edges", True),
    ("count", {"tree": {"shape": "path", "n_edges": 2}, "q": 3.7}, "q", 3.7),
    ("count", {"tree": {"shape": "complete_regular", "delta": 2.5, "depth": 1.9}, "q": 4},
     "tree.delta", 2.5),
    ("count", {"tree": {"shape": "hanging_root", "delta": 2, "depth": 1.9}, "q": 4},
     "tree.depth", 1.9),
    ("count", {"tree": {"shape": "path", "n_edges": 2}, "q": 3, "lists": "pinned_root",
               "pinned_color": 1.0}, "pinned_color", 1.0),
    ("gap", {"tree": {"shape": "path", "n_edges": 2}, "q": 3, "seed": 7.5}, "seed", 7.5),
    ("lowerbound", {"tree": {"shape": "complete_regular", "delta": 2, "depth": 2}, "q": 3,
                    "edge": False}, "edge", False),
    ("induction", {"tree": {"shape": "complete_regular", "delta": 2, "depth": 2}, "q": 3,
                   "ell": 1.0}, "ell", 1.0),
    ("star-analysis", {"delta_range": [2, 3.0]}, "delta_range[1]", 3.0),
])
def test_integer_fields_refuse_floats_and_booleans(tmp_path, capsys, command, doc, field, value):
    cfg = write_cfg(tmp_path, dict(doc, command=command))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: {field} must be an integer, not {value!r}\n")


INDUCTION = {"command": "induction",
             "tree": {"shape": "complete_regular", "delta": 2, "depth": 2},
             "q": 4, "ell": 1}


@pytest.mark.parametrize("command, doc, error", [
    ("mix", {"tree": {"shape": "path", "n_edges": 2}, "q": 3, "eps": True},
     "eps must be a number, not True"),
    ("tensorize", {"tree": {"shape": "hanging_root", "delta": 2, "depth": 1}, "q": 4,
                   "lists": "star_root", "alpha": [True, "2", 2]},
     "alpha[0] must be a number, not True"),
    ("induction", dict(INDUCTION, gamma="2"), "gamma must be a number, not '2'"),
    ("enumerate", {"tree": {"shape": "path", "n_edges": 2}, "q": 3, "include_states": "false"},
     "include_states must be a boolean, not 'false'"),
    ("lowerbound", {"tree": {"shape": "complete_regular", "delta": 2, "depth": 2}, "q": 3,
                    "strict": "false"}, "strict must be a boolean, not 'false'"),
    ("tensorize", {"tree": {"shape": "path", "n_edges": 4}, "q": 3, "blocks": "pair"},
     "blocks must be pairs or absent, not 'pair'"),
])
def test_real_boolean_and_blocks_fields_refuse_other_values(tmp_path, capsys, command, doc,
                                                            error):
    cfg = write_cfg(tmp_path, dict(doc, command=command))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {error}\n"
    assert not (tmp_path / "o").exists()


# each was refused inside its pipeline by a bound that named no config field
# ("delta must be >= 2", "delta must be >= 1", "depth ell must be >= 1", ...)
@pytest.mark.parametrize("command, doc, error", [
    ("count", {"tree": {"shape": "path", "n_edges": 2}, "q": 0},
     "q must be an integer >= 1, not 0"),
    ("induction", dict(INDUCTION, ell=0), "ell must be an integer >= 1, not 0"),
    ("star-analysis", {"delta_range": [1]}, "delta_range[0] must be an integer >= 2, not 1"),
    ("star-analysis", {"delta_range": [2, 0]}, "delta_range[1] must be an integer >= 2, not 0"),
    ("count", {"tree": {"shape": "complete_regular", "delta": 1, "depth": 2}, "q": 3},
     "tree.delta must be an integer >= 2, not 1"),
    ("congestion", {"tree": {"shape": "hanging_root", "delta": 2, "depth": 0}, "q": 4},
     "tree.depth must be an integer >= 1, not 0"),
    ("count", {"tree": {"shape": "path", "n_edges": 0}, "q": 3},
     "tree.n_edges must be an integer >= 1, not 0"),
    ("sweep", {"tree": {"shape": "path", "n_edges": 2}, "q": 3,
               "sweep": {"param": "q", "values": [3, -1]}}, "q must be an integer >= 1, not -1"),
])
def test_fields_below_their_range_are_refused_by_name(tmp_path, capsys, monkeypatch, command,
                                                      doc, error):
    def no_work(*args, **kwargs):
        raise AssertionError("a pipeline ran")

    for name in ("enumerate_colorings", "count_colorings"):
        monkeypatch.setattr(oracle, name, no_work)
    cfg = write_cfg(tmp_path, dict(doc, command=command))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {error}\n"
    assert not (tmp_path / "o").exists()


# a total-variation distance is at most 1, so eps >= 1 holds at t = 0
@pytest.mark.parametrize("eps", [1.0, 2.0, 1e-10])
def test_mix_refuses_eps_outside_unit_interval(tmp_path, capsys, eps):
    cfg = write_cfg(tmp_path, {"command": "mix", "tree": {"shape": "path", "n_edges": 2},
                               "q": 3, "eps": eps})
    assert main(["mix", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: eps must lie in [1e-9, 1), not {eps!r}\n"
    assert not (tmp_path / "o").exists()


def failed_lines(capsys, command):
    err = capsys.readouterr().err.splitlines()
    return [line for line in err if line.startswith(f"{command}: FAILED (")]


def test_lowerbound_strict_exit_code(tmp_path, capsys):
    tree_file = tmp_path / "dstar.txt"
    tree_file.write_text("6 0\n1 0\n2 0\n3 0\n4 1\n5 1\n")
    cfg = write_cfg(tmp_path, {
        "tree": {"shape": "file", "file": str(tree_file)},
        "q": 5, "edge": 0, "strict": True,
    })
    out = str(tmp_path / "out")
    # the closed-form probability disagrees with enumeration -> exit 4
    assert main(["lowerbound", "--config", cfg, "--out", out]) == 4
    doc = json.load(open(os.path.join(out, "lowerbound.json")))
    assert "verification_error" in doc
    assert failed_lines(capsys, "lowerbound") == [
        f"lowerbound: FAILED ({doc['verification_error']})"]

    cfg_ok = write_cfg(tmp_path, {
        "tree": {"shape": "file", "file": str(tree_file)},
        "q": 5, "edge": 0, "strict": False,
    }, "ok.yaml")
    assert main(["lowerbound", "--config", cfg_ok, "--out", out]) == 0


def test_lowerbound_summary_says_when_the_bound_fails(tmp_path, capsys, monkeypatch):
    tree_file = tmp_path / "dstar.txt"
    tree_file.write_text("6 0\n1 0\n2 0\n3 0\n4 1\n5 1\n")
    cfg = write_cfg(tmp_path, {
        "tree": {"shape": "file", "file": str(tree_file)},
        "q": 5, "edge": 0, "strict": False,
    })
    check = spectral.lower_bound_check
    monkeypatch.setattr(spectral, "lower_bound_check",
                        lambda *args: dict(check(*args), t_rel=0.5))
    assert main(["lowerbound", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    captured = capsys.readouterr()
    assert "t_rel=0.5 < 1.875 ->" in captured.out
    assert ">=" not in captured.out
    assert "lowerbound: FAILED (T_rel 0.5 below the bound 1.875)" in captured.err


def test_tensorize_with_root_certificate(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "command": "tensorize",
        "tree": {"shape": "hanging_root", "delta": 2, "depth": 1},
        "q": 4, "lists": "star_root",
        "alpha": [22.0, 12.0],
    })
    out = str(tmp_path / "out")
    assert main(["tensorize", "--config", cfg, "--out", out]) == 0
    doc = json.load(open(os.path.join(out, "tensorize.json")))
    assert doc["root_tensorization"]["verdict"] == "pass"

    cfg_bad = write_cfg(tmp_path, {
        "command": "tensorize",
        "tree": {"shape": "hanging_root", "delta": 2, "depth": 1},
        "q": 4, "lists": "star_root",
        "alpha": [0.0, 0.0],
    }, "bad.yaml")
    assert main(["tensorize", "--config", cfg_bad, "--out", out]) == 4
    assert len(failed_lines(capsys, "tensorize")) == 1


def test_sweep_outputs_increasing_ratio(tmp_path):
    cfg = write_cfg(tmp_path, {
        "tree": {"shape": "path", "n_edges": 4},
        "q": 3, "lists": "uniform", "kind": "HEATBATH_GLAUBER",
        "sweep": {"param": "n_edges", "values": [4, 6], "command": "gap"},
    })
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "sweep.csv")) as fh:
        rows = list(csv.DictReader(fh))
    ratios = [float(r["t_rel_per_edge"]) for r in rows]
    assert ratios[0] < ratios[1]


def test_sweep_misspelled_key_is_a_config_error(tmp_path, capsys):
    # like every other config section, the sweep mapping names its keys
    cfg = write_cfg(tmp_path, {
        "tree": {"shape": "path", "n_edges": 4},
        "q": 3, "lists": "uniform",
        "sweep": {"param": "n_edges", "values": [3, 4], "comand": "gap"},
    })
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "unknown sweep fields: ['comand']" in capsys.readouterr().err


def test_sweep_over_the_tree_replaces_the_tree_section(tmp_path):
    cfg = write_cfg(tmp_path, {
        "tree": {"shape": "path", "n_edges": 3}, "q": 3,
        "sweep": {"param": "tree", "values": [{"shape": "path", "n_edges": 2},
                                              {"shape": "path", "n_edges": 4}]},
    })
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "sweep.json")) as fh:
        rows = json.load(fh)["rows"]
    assert [(row["n_edges"], row["N"]) for row in rows] == [(2, 6), (4, 24)]
    assert rows[0]["tree_hash"] != rows[1]["tree_hash"]
    # sweep.csv holds each swept tree as JSON, as sweep.json does
    with open(os.path.join(out, "sweep.csv")) as fh:
        cells = [json.loads(row["tree"]) for row in csv.DictReader(fh)]
    assert cells == [row["tree"] for row in rows]


def test_sweep_types_every_value_before_the_first_solve(tmp_path, monkeypatch, capsys):
    reports, report = [], spectral.spectral_report

    def counted(tm, *args, **kwargs):
        reports.append(tm.n)
        return report(tm, *args, **kwargs)

    monkeypatch.setattr(spectral, "spectral_report", counted)
    cfg = write_cfg(tmp_path, {"tree": {"shape": "path", "n_edges": 3}, "q": 3,
                               "sweep": {"param": "caps", "values": [{}, 5]}})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "config error: caps must be a mapping, not 5\n"
    assert reports == [] and not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("param, values, error", [
    ("caps", [5], "caps must be a mapping, not 5"),
    ("command", ["gap"], "cannot sweep over 'command'"),
    ("out", ["elsewhere"], "cannot sweep over 'out'"),
], ids=["caps", "command", "out"])
def test_sweep_refuses_what_it_cannot_sweep(tmp_path, capsys, param, values, error):
    cfg = write_cfg(tmp_path, {"tree": {"shape": "path", "n_edges": 2}, "q": 3,
                               "sweep": {"param": param, "values": values}})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {error}\n"
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("out", [False, 0, [], ""], ids=["false", "zero", "empty_list", "empty_string"])
def test_out_that_is_no_nonempty_string_is_refused(tmp_path, monkeypatch, capsys, out):
    # a falsy out is not the default: only an absent or null one is
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, {"tree": {"shape": "path", "n_edges": 2}, "q": 3, "out": out})
    assert main(["count", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"config error: out must be a nonempty string, not {out!r}\n"
    assert not os.path.exists(tmp_path / "results")
    cfg = write_cfg(tmp_path, {"tree": {"shape": "path", "n_edges": 2}, "q": 3, "out": None})
    assert main(["count", "--config", cfg]) == 0
    assert os.path.exists(tmp_path / "results" / "count.json")


def test_main_builds_no_argument_parser(tmp_path, monkeypatch):
    # one parser, built when the module loads, serves every call
    def refuse(*args, **kwargs):
        raise AssertionError("ArgumentParser built")

    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    cfg = write_cfg(tmp_path, {"tree": {"shape": "path", "n_edges": 2}, "q": 3})
    for _ in range(2):
        assert main(["count", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


# The whole congestion.json of hanging_root(2, 3) for both path kinds: a
# faster compute_congestion must keep every float to its last digit.
PINNED_CONGESTION = {
    "glauber": {
        "q": 4, "delta": 2, "ell": 3, "kind": "glauber",
        "tree_hash": "fcf31591e02c70b2",
        "r_ab": {f"{a}->{b}": 0.024691358024691357
                 for a in (1, 2, 3) for b in (1, 2, 3) if a != b},
        "xi": [12.444444444444448, 6.000000000000001, 1.5555555555555554,
               0.6666666666666666],
        "xi_pair_blocks": 0.0,
        "xi_root_restricted": [8.296296296296298, 4.0, 1.0370370370370368,
                               0.4444444444444444],
    },
    "edge": {
        "q": 3, "delta": 2, "ell": 3, "kind": "edge",
        "tree_hash": "fcf31591e02c70b2",
        "r_ab": {"1->2": 0.125, "2->1": 0.125},
        "xi": [6.0, 4.0, 2.0, 1.0],
        "xi_pair_blocks": 1.0,
        "xi_root_restricted": [6.0, 4.0, 2.0, 1.0],
    },
}


def test_congestion_json_is_pinned(tmp_path):
    for paths, pinned in PINNED_CONGESTION.items():
        config = {"command": "congestion",
                  "tree": {"shape": "hanging_root", "delta": 2, "depth": 3},
                  "q": pinned["q"], "lists": "star_root", "paths": paths}
        cfg = write_cfg(tmp_path, config, f"{paths}.yaml")
        out = str(tmp_path / paths)
        assert main(["congestion", "--config", cfg, "--out", out]) == 0
        doc = json.load(open(os.path.join(out, "congestion.json")))
        # dumped, so an int for a float or any changed digit shows
        assert json.dumps(doc, sort_keys=True) == json.dumps(
            dict(pinned, config=config), sort_keys=True)


def test_installed_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, {
        "command": "count",
        "tree": {"shape": "path", "n_edges": 5},
        "q": 3, "lists": "uniform",
    })
    proc = subprocess.run(
        [sys.executable, "-m", "treecolor.cli", "count", "--config", cfg,
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert "48" in proc.stdout


def test_bundled_acceptance_configs_run_clean(tmp_path, capsys):
    configs = sorted(glob.glob(os.path.join(REPO, "configs", "acceptance", "*.yaml")))
    assert len(configs) >= 10
    os.chdir(REPO)  # the lowerbound config points at a repo-relative tree file
    for path in configs:
        doc = yaml.safe_load(open(path))
        command = doc["command"]
        out = str(tmp_path / os.path.basename(path).replace(".yaml", ""))
        code = main([command, "--config", path, "--out", out])
        assert code == 0, f"{path} exited {code}"
        # one writer: <command>.json with the config echo, named on one line
        artifact = os.path.join(out, command.replace("-", "_") + ".json")
        assert "config" in json.load(open(artifact))
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].endswith(f"-> {artifact}"), lines


def test_combinatorial_commands_never_import_scipy(tmp_path):
    # numpy alone serves these four; gap, run last, shows the probe sees scipy
    probe = textwrap.dedent('''
        import json, sys, yaml
        from treecolor.cli import main
        loaded = []
        for path in sys.argv[2:]:
            command = yaml.safe_load(open(path))["command"]
            assert main([command, "--config", path, "--out", sys.argv[1]]) == 0
            loaded.append("scipy" in sys.modules)
        print(json.dumps(loaded))
    ''')
    names = ("01_enumerate", "02_count", "07_congestion", "11_star_analysis",
             "03_gap")
    configs = [os.path.join(REPO, "configs", "acceptance", n + ".yaml") for n in names]
    proc = subprocess.run([sys.executable, "-c", probe, str(tmp_path), *configs],
                          cwd=REPO, env=src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [False] * 4 + [True]


def test_mix_computes_the_quarter_mixing_time_once(tmp_path, monkeypatch):
    # mix is the one command that runs the exact mixing time, and only once
    calls = []
    mixing_time = spectral.mixing_time

    def counting(tm, eps=0.25, **kw):
        calls.append(eps)
        return mixing_time(tm, eps, **kw)

    monkeypatch.setattr(spectral, "mixing_time", counting)
    base = {"tree": {"shape": "path", "n_edges": 4},
            "q": 3, "lists": "uniform", "kind": "HEATBATH_GLAUBER"}
    sweep = {"sweep": {"param": "n_edges", "values": [3, 4], "command": "gap"}}
    for command, extra in (("gap", {}), ("conductance", {}), ("sweep", sweep)):
        cfg = write_cfg(tmp_path, dict(base, command=command, **extra),
                        name=f"{command}.yaml")
        out = str(tmp_path / command)
        assert main([command, "--config", cfg, "--out", out]) == 0
    assert calls == []
    cfg = write_cfg(tmp_path, dict(base, command="mix"), name="mix.yaml")
    out = str(tmp_path / "out")
    assert main(["mix", "--config", cfg, "--out", out]) == 0
    doc = json.load(open(os.path.join(out, "mix.json")))
    assert calls == [0.25]
    assert doc["t_mix"] >= 1
    # the 24 colorings of a 4-edge path with 3 colors make 4 color orbits
    assert doc["N"] == 24 and doc["t_mix_starts"] == 4


def test_mix_computes_the_orbit_starts_once(tmp_path, monkeypatch):
    calls = []
    orbit_starts = spectral.orbit_starts

    def counting(dist):
        calls.append(dist.size)
        return orbit_starts(dist)

    monkeypatch.setattr(spectral, "orbit_starts", counting)
    cfg = write_cfg(tmp_path, {"command": "mix", "tree": {"shape": "path", "n_edges": 4},
                               "q": 3, "lists": "uniform", "kind": "HEATBATH_GLAUBER"})
    out = str(tmp_path / "out")
    assert main(["mix", "--config", cfg, "--out", out]) == 0
    doc = json.load(open(os.path.join(out, "mix.json")))
    assert calls == [24]
    assert doc["t_mix_starts"] == 4


def test_beta_is_not_a_config_key(tmp_path):
    cfg = write_cfg(tmp_path, {
        "command": "tensorize",
        "tree": {"shape": "hanging_root", "delta": 2, "depth": 1},
        "q": 4, "lists": "star_root", "alpha": [22.0, 12.0], "beta": 5,
    })
    assert main(["tensorize", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_induction_uses_gamma_zero_as_written(tmp_path, capsys):
    # gamma 0 gives every level the constant 0, which certifies nothing
    cfg = write_cfg(tmp_path, dict(INDUCTION, alpha=[1.0, 1.0], gamma=0))
    out = str(tmp_path / "out")
    assert main(["induction", "--config", cfg, "--out", out]) == 4
    assert len(failed_lines(capsys, "induction")) == 1
    doc = json.load(open(os.path.join(out, "induction.json")))
    assert doc["gamma"] == 0.0 and doc["alpha"] == [1.0, 1.0]


def test_induction_rejects_empty_alpha(tmp_path):
    cfg = write_cfg(tmp_path, dict(INDUCTION, alpha=[]))
    assert main(["induction", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_alpha_that_is_no_list_is_a_config_error(tmp_path, capsys):
    tensorize = {"command": "tensorize",
                 "tree": {"shape": "hanging_root", "delta": 2, "depth": 1},
                 "q": 4, "lists": "star_root"}
    for command, doc in (("tensorize", tensorize), ("induction", INDUCTION)):
        cfg = write_cfg(tmp_path, dict(doc, alpha=5), f"{command}.yaml")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "config error: alpha must be a list of per-level weights, not 5\n")


def test_congestion_with_one_root_color_is_a_config_error(tmp_path, capsys, monkeypatch):
    # the root list is checked before the support is enumerated
    monkeypatch.setattr(oracle, "enumerate_colorings", None)
    cfg = write_cfg(tmp_path, {
        "command": "congestion",
        "tree": {"shape": "hanging_root", "delta": 2, "depth": 2},
        "q": 4, "lists": "pinned_root", "pinned_color": 3,
    })
    assert main(["congestion", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "config error: congestion couples two root colors, but the root list is [3]\n")


def test_keys_another_command_reads_are_config_errors(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "command": "gap", "tree": {"shape": "path", "n_edges": 2}, "q": 3,
        "eps": 0.1, "blocks": "pairs", "strict": False, "alpha": [1.0],
    })
    assert main(["gap", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "config error: unknown gap config fields: ['alpha', 'blocks', 'eps', 'strict']\n")
    assert not (tmp_path / "o").exists()


ACCEPTANCE = os.path.join(REPO, "configs", "acceptance")


def acceptance_fields():
    """(config, field) for every field a bundled acceptance config may carry:
    its command's keys, its tree shape's and its sweep section's."""
    cases = []
    for path in sorted(glob.glob(os.path.join(ACCEPTANCE, "*.yaml"))):
        doc = yaml.safe_load(open(path))
        sections = [("", cli._COMMAND_KEYS[doc["command"]])]
        if isinstance(doc.get("tree"), dict):
            sections.append(("tree.", cli._SHAPE_KEYS[doc["tree"]["shape"]]))
        if "sweep" in doc:
            sections.append(("sweep.", cli._SWEEP_KEYS))
        cases += [(os.path.basename(path), prefix + key) for prefix, keys in sections
                  for key in sorted(keys)]
    return cases


def required_fields():
    """Every REQUIRED field of _FIELDS in every acceptance config."""
    return [(config, field) for config, field in acceptance_fields()
            if cli._FIELDS[field.rpartition(".")[2]][1] is cli.REQUIRED]


def first_reader_of_each_field():
    """Each entry of _FIELDS, in the first acceptance config that reads it."""
    first = {}
    for config, field in acceptance_fields():
        first.setdefault(field.rpartition(".")[2], (config, field))
    return [first[key] for key in cli._FIELDS]


def run_acceptance_config_with(tmp_path, monkeypatch, config, field, *value):
    """Exit code of the acceptance config, writing to ``tmp_path / "o"``, with
    ``field`` set to ``value``, or deleted when no value is given."""
    monkeypatch.chdir(tmp_path)
    doc = yaml.safe_load(open(os.path.join(ACCEPTANCE, config)))
    command, doc["out"] = doc["command"], str(tmp_path / "o")
    if doc.get("tree", {}).get("shape") == "file":  # a path relative to the repo
        doc["tree"]["file"] = os.path.join(REPO, doc["tree"]["file"])
    section, _, key = field.rpartition(".")
    target = doc[section] if section else doc
    if value:
        target[key] = value[0]
    else:
        del target[key]
    return main([command, "--config", write_cfg(tmp_path, doc)])


@pytest.mark.parametrize("config, field", required_fields())
def test_missing_required_field_is_named(tmp_path, capsys, monkeypatch, config, field):
    assert run_acceptance_config_with(tmp_path, monkeypatch, config, field) == 2
    assert capsys.readouterr().err == f"config error: {field} is required\n"
    assert not (tmp_path / "o").exists()


def test_every_command_and_shape_has_a_required_field_case():
    configs = {config for config, _ in required_fields()}
    docs = [yaml.safe_load(open(os.path.join(ACCEPTANCE, c))) for c in configs]
    assert {d["command"] for d in docs} == set(cli._COMMAND_KEYS) - {"star-analysis"}
    assert {d["tree"]["shape"] for d in docs} == set(cli._SHAPE_KEYS)


@pytest.mark.parametrize("config, field", first_reader_of_each_field())
def test_every_field_refuses_a_value_of_another_kind_by_name(tmp_path, capsys, monkeypatch,
                                                             config, field):
    # true is no value of any kind but bool, and 1 is no boolean
    wrong = 1 if cli._FIELDS[field.rpartition(".")[2]][0] is bool else True
    assert run_acceptance_config_with(tmp_path, monkeypatch, config, field, wrong) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field} must be ")
    assert not (tmp_path / "o").exists()


def test_readme_config_table_follows_the_field_table():
    def shown(default):
        if default is cli.REQUIRED:
            return "required"
        return "absent" if default is None else f"`{json.dumps(default).strip(chr(34))}`"

    lines = open(os.path.join(REPO, "README.md")).read().splitlines()
    start = lines.index("| key | read by | value | default |") + 2
    rows = [line[2:-2].split(" | ") for line in lines[start:lines.index("", start)]]
    assert [(row[0], row[-1]) for row in rows] == [
        (f"`{key}`", shown(default)) for key, (_, default) in cli._FIELDS.items()]


def test_each_key_has_one_field_entry_and_every_entry_is_read():
    with open(cli.__file__) as fh:
        module = ast.parse(fh.read())
    table = next(node.value for node in module.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "_FIELDS" for t in node.targets))
    entries = [key.value for key in table.keys]
    assert len(entries) == len(set(entries))  # a repeated key would hide its first entry
    keys = set().union(*cli._COMMAND_KEYS.values(), *cli._SHAPE_KEYS.values(), cli._SWEEP_KEYS)
    assert set(entries) == keys
    read = {node.slice.value for node in ast.walk(module) if isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)}
    assert keys <= read


@pytest.mark.parametrize("fault", [KeyError, TypeError, ValueError])
def test_program_fault_propagates_out_of_main(tmp_path, monkeypatch, fault):
    # only ConfigError and ParameterError are config errors; a fault keeps its
    # traceback and Python exits 1
    def broken(*args, **kwargs):
        raise fault("a fault inside the pipeline")

    monkeypatch.setattr(oracle, "count_colorings", broken)
    cfg = write_cfg(tmp_path, {"tree": {"shape": "path", "n_edges": 2}, "q": 3})
    with pytest.raises(fault, match="a fault inside the pipeline"):
        main(["count", "--config", cfg, "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("content", [b"abc 0\n", b"1 x\n", b"\xff\xfe 0\n", b"3\n"],
                         ids=["letters", "second_token", "not_utf8", "one_token"])
def test_tree_file_that_is_no_integers_is_a_config_error(tmp_path, capsys, content):
    tree_file = tmp_path / "tree.txt"
    tree_file.write_bytes(content)
    cfg = write_cfg(tmp_path, {"command": "count", "q": 3,
                               "tree": {"shape": "file", "file": str(tree_file)}})
    assert main(["count", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: malformed tree file: ")


def test_tree_file_that_is_no_string_is_refused_unread(tmp_path, capsys, monkeypatch):
    # open(0) would read the tree from stdin and close it
    loads = []
    monkeypatch.setattr(cli, "load_tree", loads.append)
    cfg = write_cfg(tmp_path, {"tree": {"shape": "file", "file": 0}, "q": 3})
    assert main(["count", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: tree.file must be a nonempty string, not 0\n"
    assert loads == []


@pytest.mark.parametrize("edge", [99, -1])
def test_lowerbound_refuses_an_edge_out_of_range(tmp_path, capsys, edge):
    cfg = write_cfg(tmp_path, {"tree": {"shape": "complete_regular", "delta": 2, "depth": 2},
                               "q": 3, "edge": edge})
    assert main(["lowerbound", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: edge {edge} out of range 0..3\n"


def test_negative_seed_is_refused_by_name(tmp_path, capsys, monkeypatch):
    reports = []
    monkeypatch.setattr(spectral, "spectral_report", lambda *args, **kw: reports.append(kw))
    cfg = write_cfg(tmp_path, {"tree": {"shape": "path", "n_edges": 2}, "q": 3})
    assert main(["gap", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "config error: seed must be a nonnegative integer, not -1\n"
    assert reports == []


@pytest.mark.parametrize("doc, error", [
    ({"tree": {"shape": "path", "n_edges": 2}, "sweep": {"param": "q", "values": [3, 4]}},
     "q is required"),
    ({"tree": {"shape": "path"}, "q": 3, "sweep": {"param": "n_edges", "values": [2, 3]}},
     "tree.n_edges is required"),
    ({"tree": {"shape": "path", "n_edges": 2}, "q": 3,
      "sweep": {"param": "delta", "values": [2, 3]}}, "unknown tree fields: ['delta']"),
], ids=["q", "tree_key", "key_of_another_shape"])
def test_sweep_base_is_typed_as_a_gap_config(tmp_path, capsys, doc, error):
    # the base must be a whole gap config, and a tree key belongs to a shape
    cfg = write_cfg(tmp_path, doc)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {error}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("doc, error", [
    ({"tree": {"shape": "path", "n_edges": 2}, "q": 3, "out": "a\0b"},
     "cannot write a\0b/count.json: embedded null byte"),
    ({"tree": {"shape": "file", "file": "a\0b"}, "q": 3},
     "malformed tree file: embedded null byte"),
], ids=["out", "tree_file"])
def test_path_with_a_nul_byte_is_a_config_error(tmp_path, capsys, monkeypatch, doc, error):
    monkeypatch.chdir(tmp_path)
    assert main(["count", "--config", write_cfg(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"config error: {error}\n"
