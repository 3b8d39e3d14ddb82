import ast
import glob
import json
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Public names of ``src/treecolor`` that no code of the package, the bench
# harness or the demos reads: only tests call them.  Each should get a route
# into an artifact or move to ``tests/``; a name that joins this list is new
# dead surface, and one that leaves it must leave this list too.
UNREFERENCED = [
    "tensorization.f_hat",
]


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def public_top_level_names(module):
    """The functions, classes and assigned names at the top of ``module``
    whose names do not start with an underscore."""
    names = []
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not name.startswith("_")]


def referenced_names(paths):
    """Every name read, every attribute taken and every name imported in the
    files ``paths``: a name is referenced if it appears in any of them."""
    refs = set()
    for path in paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name)
    return refs


def test_unreferenced_public_names_are_pinned():
    callers = [path for part in ("src", "bench", "demos")
               for path in glob.glob(os.path.join(REPO, part, "**", "*.py"), recursive=True)]
    refs = referenced_names(callers)
    unreferenced = []
    for path in sorted(glob.glob(os.path.join(REPO, "src", "treecolor", "*.py"))):
        module = os.path.basename(path)[:-3]
        unreferenced += [f"{module}.{name}" for name in public_top_level_names(_parse(path))
                         if name not in refs]
    assert sorted(unreferenced) == UNREFERENCED


def test_key_limit_is_read_by_one_function():
    # one exact row key serves lookup and grouping: a second reader of
    # KEY_LIMIT would be a second key, with its own cut rule
    module = _parse(os.path.join(REPO, "src", "treecolor", "oracle.py"))
    readers = [node.name for node in ast.walk(module) if isinstance(node, ast.FunctionDef)
               and any(isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                       and n.id == "KEY_LIMIT" for n in ast.walk(node))]
    assert readers == ["_digit_keys"]


def test_rows_of_is_called_by_four_functions():
    # the row map of a color permutation is one lookup, in ``row_map``: a
    # fifth caller of ``rows_of`` may be a second copy of that action
    callers = set()
    for path in glob.glob(os.path.join(REPO, "src", "treecolor", "*.py")):
        callers |= {node.name for node in ast.walk(_parse(path))
                    if isinstance(node, ast.FunctionDef)
                    and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                            and n.func.attr == "rows_of" for n in ast.walk(node))}
    assert callers == {"row_map", "_flip_couplings", "build_paths", "verify_paths"}


def test_mutant_snippets_occur_once_in_src():
    # tests/mutants.json: hand mutations of src/, each with the tests known
    # to fail on it.  A snippet found once in src/ still names the code it
    # breaks, so a refactor that moves that code updates the catalogue; every
    # expected failure names a test function that exists.
    with open(os.path.join(REPO, "tests", "mutants.json")) as fh:
        mutants = json.load(fh)["mutants"]
    sources = {}
    for path in glob.glob(os.path.join(REPO, "src", "treecolor", "*.py")):
        with open(path) as fh:
            sources[os.path.relpath(path, REPO)] = fh.read()
    tests = {}
    assert len({m["id"] for m in mutants}) == len(mutants)
    for m in mutants:
        assert sources[m["file"]].count(m["snippet"]) == 1, m["id"]
        assert sum(text.count(m["snippet"]) for text in sources.values()) == 1, m["id"]
        assert m["replacement"] != m["snippet"] and m["fails"], m["id"]
        for test in m["fails"]:
            path, name = test.split("[")[0].split("::")
            if path not in tests:
                tests[path] = {node.name for node in ast.walk(_parse(os.path.join(REPO, path)))
                               if isinstance(node, ast.FunctionDef)}
            assert name.startswith("test_") and name in tests[path], test
