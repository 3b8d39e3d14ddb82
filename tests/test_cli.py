import csv
import glob
import json
import os
import subprocess
import sys
import textwrap

import yaml

import treecolor
from treecolor import spectral
from treecolor.cli import main
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


def test_config_errors(tmp_path):
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


def test_lowerbound_strict_exit_code(tmp_path):
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

    cfg_ok = write_cfg(tmp_path, {
        "tree": {"shape": "file", "file": str(tree_file)},
        "q": 5, "edge": 0, "strict": False,
    }, "ok.yaml")
    assert main(["lowerbound", "--config", cfg_ok, "--out", out]) == 0


def test_tensorize_with_root_certificate(tmp_path):
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


def test_bundled_acceptance_configs_run_clean(tmp_path):
    configs = sorted(glob.glob(os.path.join(REPO, "configs", "acceptance", "*.yaml")))
    assert len(configs) >= 10
    os.chdir(REPO)  # the lowerbound config points at a repo-relative tree file
    for path in configs:
        doc = yaml.safe_load(open(path))
        command = doc["command"]
        out = str(tmp_path / os.path.basename(path).replace(".yaml", ""))
        code = main([command, "--config", path, "--out", out])
        assert code == 0, f"{path} exited {code}"


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
    # mix is the one command that runs the dense mixing time, and only once
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
