"""Every module of the package uses every name it imports, every
module-level function or class, and every method of a top-level class
but the dunders, is read in the package or has a listed reason not to
be, every name the benchmark's trace wraps exists, no module but
algebra.py contracts the structure constants by a loop of its own,
outside the coadjoint derivations, no file but poly.py builds a
polynomial through its unchecked constructor, the certificate modules
call a builtin max or min on integer counts only, no module compares the
case label more often than its pinned count, and every entry of the
mutation suite (tests/mutations.py) still applies."""

import ast
import importlib
from pathlib import Path
import sys

import pytest

from mutations import MUTATIONS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "su3mag"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the import statements of source and never read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read)


def test_the_scan_sees_an_unused_import():
    source = "import math\nfrom os import path, sep\nprint(path)\n"
    assert unused_imports(source) == ["math", "sep"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# module-level names and methods of the package that nothing in it reads,
# each with the reason it stays
UNREAD = {
    "algebra.polar_project": "traced by the benchmark (perfbench/layers.py)",
    "phase.differential": "traced by the benchmark (perfbench/layers.py)",
    "exact_linalg.rref": "traced by the benchmark (perfbench/layers.py)",
    "phase.twisted_bracket": "traced by the benchmark (perfbench/layers.py); "
                             "used by demos/02_bracket_tables.py; exported "
                             "as su3mag.twisted_bracket",
    "phase.closed_form_group": "used by demos/03_magnetic_flow.py",
    "poly.parse_polynomial": "the documented inverse of Polynomial.text",
    "algebra.LieAlgebraSpec.np_bracket": "traced by the benchmark "
                                         "(perfbench/layers.py); the tests' "
                                         "independent float bracket",
    "algebra.LieAlgebraSpec.verify": "the exact Jacobi, antisymmetry and "
                                     "invariance check of a build; used by "
                                     "demos/01_algebras_and_invariants.py",
    "phase.MagneticSystem.random_point": "traced by the benchmark "
                                         "(perfbench/layers.py); the tests' "
                                         "unfiltered phase point",
    "poly.Polynomial.evaluate": "traced by the benchmark "
                                "(perfbench/layers.py); used by "
                                "demos/02_bracket_tables.py",
}


def unread_definitions(sources):
    """"<module>.<name>" of each top-level function and class of the
    {module: source} map, and "<module>.<class>.<name>" of each method of
    a top-level class but the dunders, that no module reads, as a name or
    as an attribute (``module.name``, ``obj.method``).  An import alone is
    not a read."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}", item.name)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__")
                                     and item.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in read)


def test_the_scan_sees_an_unread_definition():
    sources = {"a": "def f():\n    return g()\ndef g():\n    pass\n"
                    "def h():\n    pass\nclass C:\n    pass\n",
               "b": "from .a import h\nimport a\nx = a.C\n"}
    assert unread_definitions(sources) == ["a.f", "a.h"]


def test_the_scan_sees_an_unread_method():
    sources = {"a": "class C:\n    def __init__(self):\n        self.g()\n"
                    "    def g(self):\n        pass\n"
                    "    def h(self):\n        pass\n"
                    "    def __repr__(self):\n        pass\n"
                    "def f():\n    return C()\n",
               "b": "from a import f\nf().x.h\n"}
    assert unread_definitions(sources) == []
    sources["b"] = "from a import f\n"
    assert unread_definitions(sources) == ["a.C.h", "a.f"]


def test_every_unread_definition_has_a_reason():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert unread_definitions(sources) == sorted(UNREAD)


def test_every_traced_name_resolves(monkeypatch):
    """The FUNCTIONS, METHODS and COUNTED targets of perfbench/layers.py
    are attributes of su3mag; the import writes no bytecode there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "layers", raising=False)
    layers = importlib.import_module("layers")
    missing = []
    for mod, attr, _ in layers.FUNCTIONS:
        if not hasattr(importlib.import_module(mod), attr):
            missing.append(f"{mod}.{attr}")
    for mod, cls, attr, _ in layers.METHODS + layers.COUNTED:
        owner = getattr(importlib.import_module(mod), cls, None)
        if not hasattr(owner, attr):
            missing.append(f"{mod}.{cls}.{attr}")
    assert layers.FUNCTIONS and layers.METHODS and layers.COUNTED
    assert missing == []


def structure_loops(source):
    """Qualified names ("Class.method" or "function") of the functions of
    source whose body iterates ``<expr>.structure.items()``, by a for
    statement or a comprehension."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, (ast.For, ast.comprehension)):
                it = child.iter
                if (isinstance(it, ast.Call)
                        and isinstance(it.func, ast.Attribute)
                        and it.func.attr == "items"
                        and isinstance(it.func.value, ast.Attribute)
                        and it.func.value.attr == "structure"):
                    found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return sorted(set(found))


def test_the_scan_sees_a_structure_loop():
    source = ("def f(alg):\n    for key, c in alg.structure.items():\n"
              "        pass\n"
              "class A:\n    def g(self):\n"
              "        return [c for _, c in self.structure.items()]\n"
              "def h(alg):\n    return sorted(alg.structure)\n")
    assert structure_loops(source) == ["A.g", "f"]


def test_only_the_coadjoint_derivations_loop_over_the_structure():
    """Every exact bracket outside algebra.py goes through
    LieAlgebraSpec.bracket_coords; the one other loop over the structure
    constants builds the coadjoint derivations' terms."""
    loops = [f"{p.stem}.{name}" for p in MODULES if p.name != "algebra.py"
             for name in structure_loops(p.read_text(encoding="utf-8"))]
    assert loops == ["invariants._operator_terms"]


def trusted_constructor_uses(source):
    """The source text of each use of ``_from_terms``, the polynomial
    ring's unchecked constructor, in source: a name, an attribute or an
    imported name, sorted."""
    tree = ast.parse(source)
    found = [ast.unparse(node) for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "_from_terms"
             or isinstance(node, ast.Attribute) and node.attr == "_from_terms"]
    found += [alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names
              if alias.name == "_from_terms"]
    return sorted(found)


def test_the_scan_sees_the_trusted_constructor():
    source = ("from su3mag.poly import _from_terms\n"
              "import su3mag.poly as poly\n"
              "p = poly._from_terms(('x',), {(1,): c})\n"
              "make = _from_terms\n"
              "q = Polynomial(('x',), {(1,): c})\n")
    assert trusted_constructor_uses(source) == [
        "_from_terms", "_from_terms", "poly._from_terms"]


def test_only_the_ring_builds_unchecked_term_maps():
    """No file of the package but poly.py, and no test, demo or benchmark
    script, calls or names poly._from_terms: every term map built
    elsewhere goes through the validating Polynomial(vars, terms)."""
    files = [p for p in MODULES if p.name != "poly.py"] + sorted(
        p for folder in ("tests", "demos", "perfbench")
        for p in (ROOT / folder).rglob("*.py"))
    uses = [f"{p.relative_to(ROOT)}: {use}" for p in files
            for use in trusted_constructor_uses(p.read_text(encoding="utf-8"))]
    assert uses == []


# the builtin max and min calls of the certificate modules, each an
# integer count: a builtin max or min over floats skips a NaN that is not
# its first value, so a float line would pass on a NaN residual
INTEGER_MAX_MIN = {
    "reports": ["max(1, len(traj.points) // 2000)", "min(5, rank_samples)",
                "min(50, samples)"],
}


def builtin_max_min_calls(source):
    """The source text of each call of a bare ``max`` or ``min`` name in
    source, sorted; a method or numpy call (``a.max()``, ``np.min(a)``)
    is not one."""
    return sorted(ast.unparse(node) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in ("max", "min"))


def test_the_scan_sees_a_builtin_max_or_min():
    source = ("def f(vals, a):\n    n = min(5, len(vals))\n"
              "    return max(vals) - np.min(a) + a.max()\n")
    assert builtin_max_min_calls(source) == ["max(vals)", "min(5, len(vals))"]


@pytest.mark.parametrize("module", ["certify", "reports", "angles"])
def test_certificate_modules_reduce_floats_by_numpy(module):
    """certify, reports and angles reduce float residuals by numpy
    (_worst, np.ptp), which keeps a NaN; their only builtin max and min
    calls are the integer counts of INTEGER_MAX_MIN."""
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert builtin_max_min_calls(source) == INTEGER_MAX_MIN.get(module, [])


# the comparisons with a case label per module of the package, a ratchet:
# a change that reads one more case fact off the split, and so removes a
# branch, lowers its module's count.  reports counts the two of
# make_system, which maps a CLI case to its system.
CASE_COMPARISONS = {"angles": 0, "certify": 4, "phase": 1, "reports": 11}


def case_comparisons(source):
    """The number of comparisons in source with an operand that is the
    case label: ``case_tag`` (a name or an attribute) or a name ``case``."""
    def is_label(node):
        return (isinstance(node, ast.Attribute) and node.attr == "case_tag"
                or isinstance(node, ast.Name)
                and node.id in ("case_tag", "case"))

    return sum(1 for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.Compare)
               and any(map(is_label, [node.left, *node.comparators])))


def test_the_scan_sees_a_case_comparison():
    source = ("def f(sys, case):\n    if sys.case_tag == 'regular':\n"
              "        return 1\n    if 'irregular' != case:\n"
              "        return 2\n    label = sys.case_tag\n"
              "    return {'case': label}[case] == 3\n")
    assert case_comparisons(source) == 2


def test_case_comparisons_do_not_grow():
    counts = {p.stem: case_comparisons(p.read_text(encoding="utf-8"))
              for p in MODULES}
    assert {m: n for m, n in counts.items()
            if n or m in CASE_COMPARISONS} == CASE_COMPARISONS


@pytest.mark.parametrize("entry", MUTATIONS, ids=lambda m: m.id)
def test_each_mutation_still_applies(entry):
    """The old text of each mutation occurs exactly once in its file and
    each of its tests still exists, so the suite cannot rot silently."""
    assert (ROOT / entry.file).read_text(encoding="utf-8").count(
        entry.old) == 1
    assert entry.old != entry.new and entry.tests
    for test in entry.tests:
        path, name = test.split("::")
        assert f"def {name}(" in (ROOT / path).read_text(encoding="utf-8")
