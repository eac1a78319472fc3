"""Rules that hold for the package source as a whole."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gpauction"


def nodes():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def called_name(node: ast.Call):
    """The name a call is made through: f(...) or obj.f(...) give f."""
    f = node.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def test_no_assert_statements():
    """`python -O` strips asserts, so a guard on a verdict must raise
    (InternalError) instead."""
    found = [f"{name}:{node.lineno}" for name, node in nodes() if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/gpauction: {found}"


def test_one_search_path():
    """The solver searches decomposable aggregates through
    enumerate_aggregates; neither the candidate box (kept for tests as
    the brute-force reference) nor an m! permutation scan may come back."""
    banned = {"candidate_points", "permutations"}
    found = []
    for name, node in nodes():
        if isinstance(node, ast.Call):
            called = called_name(node)
            if called in banned:
                found.append(f"{name}:{node.lineno} calls {called}")
        elif isinstance(node, ast.ImportFrom):
            found += [
                f"{name}:{node.lineno} imports {a.name}" for a in node.names if a.name in banned
            ]
    assert not found, f"banned search in src/gpauction: {found}"


def test_one_multiset_search():
    """polytope has one depth-first search over multisets of bundles,
    _splits: a point's decompositions are the aggregate search with its
    edge counts pinned, and the seller's revenue search is the aggregate
    search run on the price's edge integers, so neither public enumerator
    nor seller_demand has a search of its own."""
    for module, name, reaches in (
        ("polytope.py", "enumerate_decompositions", {"_splits"}),
        ("polytope.py", "enumerate_aggregates", {"_splits"}),
        ("demand.py", "seller_demand", {"_splits"}),
    ):
        tree = ast.parse((SRC / module).read_text())
        funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
        body = list(ast.walk(funcs[name]))[1:]
        nested = [n.lineno for n in body if isinstance(n, (ast.FunctionDef, ast.Lambda))]
        assert not nested, f"{name} defines a function at lines {nested}"
        calls = {called_name(n) for n in body if isinstance(n, ast.Call)}
        assert calls & reaches, f"{name} does not call {' or '.join(sorted(reaches))}"


def test_one_item_shape():
    """_splits, its nested search included, yields at one place: every
    search, unpriced or priced, yields (coords, masks) by one leaf rule."""
    tree = ast.parse((SRC / "polytope.py").read_text())
    (splits,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_splits"]
    found = [n.lineno for n in ast.walk(splits) if isinstance(n, ast.Yield)]
    assert len(found) == 1, f"_splits yields at lines {found}"


def test_no_self_calls():
    """No function calls itself, nested defs included, so no search depth
    is tied to the interpreter's recursion limit: a search keeps its own
    stack. A method calls itself through self or cls; its bare-name call
    reaches the module function of that name (Valuation.is_finite calls
    is_finite), so that is no self-call."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for f in ast.walk(tree):
            if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for n in ast.walk(f):
                if not isinstance(n, ast.Call):
                    continue
                if id(f) in methods:
                    owner = getattr(n.func, "value", None)
                    hit = getattr(owner, "id", None) in ("self", "cls")
                else:
                    hit = isinstance(n.func, ast.Name)
                if hit and called_name(n) == f.name:
                    found.append(f"{path.name}:{n.lineno} {f.name}")
    assert not found, f"functions calling themselves in src/gpauction: {found}"


def test_no_gmpy2():
    """The LP core pivots on plain integers; gmpy2 is no dependency."""
    found = []
    for name, node in nodes():
        if isinstance(node, ast.Import):
            mods = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            mods = [node.module or ""]
        else:
            continue
        found += [f"{name}:{node.lineno}" for mod in mods if mod.split(".")[0] == "gmpy2"]
    assert not found, f"gmpy2 imported in src/gpauction: {found}"


def test_one_valuation_path():
    """Bundles are valued through the integer tables of model; the direct
    model.value stays as the reference, called from model.py alone."""
    found = [
        f"{name}:{node.lineno}"
        for name, node in nodes()
        if name != "model.py" and isinstance(node, ast.Call) and called_name(node) == "value"
    ]
    assert not found, f"calls of value outside model.py: {found}"


def test_one_utility_scan():
    """Bundles are tabulated in model alone: the demand sets, verify_ce
    and the pricing LP's separation scan read the valuation and price
    tables through demand's one utility scan."""
    banned = {"bundle_sums", "scaled_ints"}
    found = [
        f"{name}:{node.lineno} calls {called_name(node)}"
        for name, node in nodes()
        if name != "model.py" and isinstance(node, ast.Call) and called_name(node) in banned
    ]
    assert not found, f"tables built outside model.py: {found}"


def test_one_reader_per_input():
    """Rational strings have one grammar, model._RATIONAL, read by
    as_fraction; the built-in corpus is read by parse_instance like any
    instance file, so corpus_instance builds no domain object itself."""
    grammars = [
        name
        for name, node in nodes()
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "_RATIONAL" for t in node.targets)
    ]
    assert grammars == ["model.py"], f"_RATIONAL defined in {grammars}"
    tree = ast.parse((SRC / "instances.py").read_text())
    (corpus,) = [f for f in tree.body if getattr(f, "name", None) == "corpus_instance"]
    calls = {called_name(n) for n in ast.walk(corpus) if isinstance(n, ast.Call)}
    assert "parse_instance" in calls
    built = calls & {"Valuation", "Face", "GPoint", "ValueGraph", "from_bundles", "from_edges",
                     "complete", "shift"}
    assert not built, f"corpus_instance builds {sorted(built)}"


# Imports every module of the package, then prints the size of each
# functools cache defined at module level, keyed "module.name".
CACHE_SIZES = """
import importlib, json, pkgutil
import gpauction
sizes = {}
for info in pkgutil.iter_modules(gpauction.__path__):
    mod = importlib.import_module(f"gpauction.{info.name}")
    for name, obj in vars(mod).items():
        if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
            sizes[f"{info.name}.{name}"] = obj.cache_info().currsize
print(json.dumps(sizes))
"""


def test_tables_stay_lazy():
    """No per-graph or per-n table is built at import: in a fresh
    interpreter, after importing the package and every module in it, each
    functools cache defined in the package is empty. A table built at
    import would be paid by every process, whether or not it solves."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CACHE_SIZES], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    sizes = json.loads(proc.stdout)
    assert {"polytope._vertex_table", "polytope.bundle_table", "demand._plan"} <= set(sizes)
    filled = {name: size for name, size in sizes.items() if size}
    assert not filled, f"caches filled at import: {filled}"
