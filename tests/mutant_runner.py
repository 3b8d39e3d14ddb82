"""Check that the mutants of ``tests/mutants.json`` are still killed.

    python3 tests/mutant_runner.py [ID ...]

Run from anywhere; with no ID every mutant runs.  Each mutant is applied to
a fresh temporary copy of ``src/`` (the repository is never edited), and
pytest runs only the tests of its ``fails`` list against that copy.  A
mutant survives when one of those tests passes.  Prints one line per
mutant, the survivors and the wall time, and exits 1 if any survived.
Opt-in: pytest does not collect this file.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PASSED = re.compile(r"^PASSED (\S+)", re.MULTILINE)


def mutated_copy(mutant, tmp):
    """A copy of ``src/`` under ``tmp`` with the mutant's snippet replaced;
    returns the copy's ``src`` directory."""
    src = os.path.join(tmp, "src")
    shutil.copytree(os.path.join(REPO, "src"), src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = os.path.join(tmp, mutant["file"])
    with open(path) as fh:
        text = fh.read()
    if text.count(mutant["snippet"]) != 1:
        raise SystemExit(f"{mutant['id']}: snippet does not occur once in {mutant['file']}")
    with open(path, "w") as fh:
        fh.write(text.replace(mutant["snippet"], mutant["replacement"]))
    return src


def survivors(mutant):
    """The tests of the mutant's ``fails`` list that pass on the mutated
    copy (a parametrized test survives if any of its cases passes)."""
    with tempfile.TemporaryDirectory() as tmp:
        src = mutated_copy(mutant, tmp)
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-rA", "--tb=no",
               "-p", "no:cacheprovider", "-o", f"pythonpath={src}", *mutant["fails"]]
        run = subprocess.run(cmd, cwd=REPO, env=env, capture_output=True, text=True)
    if run.returncode not in (0, 1):  # 2-5: interrupted, internal error, usage, none found
        raise SystemExit(f"{mutant['id']}: pytest exited {run.returncode}\n{run.stdout}{run.stderr}")
    passed = PASSED.findall(run.stdout)
    return [test for test in mutant["fails"]
            if any(p == test or p.startswith(test + "[") for p in passed)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ids", nargs="*", help="mutant ids (default: all)")
    args = parser.parse_args(argv)
    with open(os.path.join(REPO, "tests", "mutants.json")) as fh:
        mutants = json.load(fh)["mutants"]
    unknown = set(args.ids) - {m["id"] for m in mutants}
    if unknown:
        raise SystemExit(f"unknown mutant ids: {sorted(unknown)}")
    chosen = [m for m in mutants if not args.ids or m["id"] in args.ids]
    start, alive = time.monotonic(), {}
    for mutant in chosen:
        t0 = time.monotonic()
        alive[mutant["id"]] = survivors(mutant)
        verdict = "SURVIVED " + " ".join(alive[mutant["id"]]) if alive[mutant["id"]] else "killed"
        print(f"{mutant['id']}: {verdict} ({time.monotonic() - t0:.1f} s)", flush=True)
    surviving = [name for name, tests in alive.items() if tests]
    print(f"{len(chosen) - len(surviving)} of {len(chosen)} mutants killed, "
          f"survivors: {surviving or 'none'}; wall time {time.monotonic() - start:.1f} s")
    return 1 if surviving else 0


if __name__ == "__main__":
    sys.exit(main())
