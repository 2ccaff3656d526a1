"""No module of the package imports a name it never uses, none defines
a private module-level name it never reads or a private method or
`__slots__` name it never reads as an attribute, none writes into the
`terms` of a Chow element or the `_terms` it stores them in (nor does
any test, script or benchmark file), none sets the `mono` hint of one
outside its constructor, none passes that hint to the constructor
outside the memo's fill in `Ambient.__init__`, none builds a
`CheckResult` outside `verify`'s `_check`, `_skip` and `_window`, none
holds an `assert` statement, and only `catalog.FamilyRecord` is a
dataclass.

There is no linter in the toolchain, so this walks each module's syntax
tree with `ast`.  The import guard also reads every script, test and
benchmark file; only `__init__.py` is exempt from it: its imports are
the package's public re-exports.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from checkout import child_env

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "delpezzo"
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_unused_imports_are_detected():
    source = (
        "from dataclasses import dataclass, field\n"
        "import json\n"
        "@dataclass\n"
        "class A: pass\n"
    )
    assert unused_imports(source) == ["field", "json"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


# every script, test and benchmark file by its path from the repository root
OTHER_FILES = [
    pytest.param(p, id=p.relative_to(ROOT).as_posix())
    for d in ("tests", "scripts", "bench")
    for p in sorted((ROOT / d).glob("*.py"))
]


@pytest.mark.parametrize(
    "path", [pytest.param(p, id=p.name) for p in MODULES] + OTHER_FILES
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


# the named-tuple protocol: defined for callers outside the module
_NAMED_TUPLE_PROTOCOL = {"_replace", "_asdict", "_make", "_fields"}


def _slot_names(node: ast.ClassDef) -> list[str]:
    """The string constants of a class's `__slots__` tuple."""
    names = []
    for stmt in node.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
        ):
            names += [
                n.value for n in ast.walk(stmt.value)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            ]
    return names


def unread_private_names(source: str) -> list[str]:
    """Module-level `_name` functions, classes and constants never read as
    a name, and private methods and `__slots__` names of classes never
    read as an attribute; the named-tuple protocol is exempt."""
    tree = ast.parse(source)
    defined, members = [], []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [t.id for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            members += _slot_names(node)
            members += [
                f.name for f in node.body
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
    read = {
        n.id
        for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    read_attrs = {
        n.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    unread = [name for name in defined if _is_private(name) and name not in read]
    unread += [
        name
        for name in members
        if _is_private(name) and name not in read_attrs | _NAMED_TUPLE_PROTOCOL
    ]
    return sorted(set(unread))


def test_unread_private_names_are_detected():
    source = (
        "_USED = 1\n"
        "_LEFT: int = 2\n"
        "def _helper(): return _USED\n"
        "def _orphan(): pass\n"
        "class _Gone: pass\n"
        "__all__ = []\n"
        "def public(): return _helper()\n"
    )
    assert unread_private_names(source) == ["_Gone", "_LEFT", "_orphan"]


def test_unread_private_members_are_detected():
    # a slot or a private method only ever written, or read under another
    # name, is dead; public members, dunders and the named-tuple protocol
    # are not checked
    source = (
        "class A:\n"
        "    __slots__ = ('public', '_read', '_written', '_dead')\n"
        "    def __init__(self):\n"
        "        self.public = self._read = self._written = 0\n"
        "    def _orphan(self): return self._read\n"
        "    def _bare(self): return _orphan\n"
        "    def _used(self): return self._bare()\n"
        "    def go(self): return self._used()\n"
        "    def _replace(self): pass\n"
        "    def _asdict(self): pass\n"
    )
    assert unread_private_names(source) == ["_dead", "_orphan", "_written"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


_DICT_MUTATORS = {"update", "pop", "popitem", "clear", "setdefault"}


def _is_terms(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in ("terms", "_terms")


def terms_mutations(source: str) -> list[int]:
    """Lines that change an `.terms` or `._terms` dict in place.

    The engine's memo hands the same element to every caller, so its
    terms dict is shared: an item assignment, deletion, in-place `|=` or
    mutating method call on any `._terms`, or on the `.terms` view of
    it, would change other values too.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            hit = _is_terms(node.value)
        elif isinstance(node, ast.AugAssign):
            hit = _is_terms(node.target)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            hit = node.func.attr in _DICT_MUTATORS and _is_terms(node.func.value)
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_terms_mutations_are_detected():
    source = (
        "def f(x, y):\n"
        "    x.terms[(1,)] = 2\n"
        "    del y.terms[(0,)]\n"
        "    x.terms[(2,)] += 1\n"
        "    y.terms.update({})\n"
        "    x.terms.setdefault((3,), 0)\n"
        "    x.terms |= {}\n"
        "    y.terms.pop((1,)), y.terms.popitem(), x.terms.clear()\n"
        "    terms = dict(x.terms)\n"
        "    terms[(1,)] = 0\n"
        "    terms.pop((1,))\n"
        "    x.terms = terms\n"
        "    return x.terms.get((1,)), x.terms[(1,)], y.terms.items()\n"
        "def g(x):\n"
        "    x._terms[1] = 2\n"
        "    x._terms.update({})\n"
        "    return x._terms.get(1), dict(x._terms)\n"
    )
    assert terms_mutations(source) == [2, 3, 4, 5, 6, 7, 8, 8, 8, 15, 16]


# the package by module name, then every script, test and benchmark file:
# the memo shares each unit terms dict with every ambient of its shape, so
# a write anywhere in the process would corrupt them all
TERMS_READERS = [pytest.param(p, id=p.name) for p in ALL_MODULES] + OTHER_FILES


@pytest.mark.parametrize("path", TERMS_READERS)
def test_no_module_mutates_terms_in_place(path):
    assert terms_mutations(path.read_text(encoding="utf-8")) == []


def _function_nodes(tree, cls_name: str, fn_name: str) -> set[int]:
    """ids of every node inside method fn_name of class cls_name."""
    return {
        id(n)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == cls_name
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name == fn_name
        for n in ast.walk(fn)
    }


def _is_mono_setattr(node) -> bool:
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return (
        name in ("setattr", "__setattr__")
        and len(node.args) >= 2
        and isinstance(node.args[1], ast.Constant)
        and node.args[1].value == "mono"
    )


def mono_assignments(source: str) -> list[int]:
    """Lines that set or delete a `.mono` outside `ChowElement.__init__`.

    The product's fast path trusts `mono` to name the element's one term
    {mono: 1}; only the constructor may set it, so an element can never
    gain or change the hint after its terms are fixed.
    """
    tree = ast.parse(source)
    exempt = _function_nodes(tree, "ChowElement", "__init__")
    lines = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Attribute):
            hit = node.attr == "mono" and not isinstance(node.ctx, ast.Load)
        elif isinstance(node, ast.Call):
            hit = _is_mono_setattr(node)
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_mono_assignments_are_detected():
    source = (
        "class ChowElement:\n"
        "    def __init__(self, mono=None):\n"
        "        self.mono = mono\n"
        "    def hint(self, m):\n"
        "        self.mono = m\n"
        "def f(x, y):\n"
        "    x.mono = (1,)\n"
        "    x.mono, y.degree = (2,), 0\n"
        "    del y.mono\n"
        "    x.mono += (0,)\n"
        "    setattr(x, 'mono', None)\n"
        "    object.__setattr__(y, 'mono', None)\n"
        "    for x.mono in [(1,)]: pass\n"
        "    return x.mono, getattr(y, 'mono'), setattr(x, 'degree', 1)\n"
        "class Other:\n"
        "    def __init__(self):\n"
        "        self.mono = None\n"
    )
    assert mono_assignments(source) == [5, 7, 8, 9, 10, 11, 12, 13, 17]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_module_sets_mono_outside_the_constructor(path):
    assert mono_assignments(path.read_text(encoding="utf-8")) == []


def mono_constructions(source: str) -> list[int]:
    """Lines that call `ChowElement(...)` with a `mono` hint outside
    `Ambient.__init__`.

    A fourth positional argument, a `mono=` keyword, or a starred or
    `**` argument that could carry either counts.  Only the memo makes
    elements that are its own normal monomials, all of them when it is
    filled at construction, so only that fill may say so.
    """
    tree = ast.parse(source)
    exempt = _function_nodes(tree, "Ambient", "__init__")
    lines = []
    for node in ast.walk(tree):
        if id(node) in exempt or not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name != "ChowElement":
            continue
        if (
            len(node.args) > 3
            or any(isinstance(a, ast.Starred) for a in node.args)
            or any(k.arg in ("mono", None) for k in node.keywords)
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_mono_constructions_are_detected():
    source = (
        "class Ambient:\n"
        "    def __init__(self, ms):\n"
        "        self._memo = {m: ChowElement(self, {m: 1}, sum(m), m) for m in ms}\n"
        "    def gen(self, m):\n"
        "        return ChowElement(self, {m: 1}, 1, m)\n"
        "    def _normal_form(self, m):\n"
        "        return ChowElement(self, {m: 1}, sum(m), m)\n"
        "def f(A, m, args, kw):\n"
        "    ChowElement(A, {m: 1}, 1, mono=m)\n"
        "    chow.ChowElement(A, {m: 1}, 1, m)\n"
        "    ChowElement(*args)\n"
        "    ChowElement(A, **kw)\n"
        "    ChowElement(A, {}, None), ChowElement(A, {m: 1}, degree=1)\n"
        "    return Other(A, {m: 1}, 1, m), A.ChowElement\n"
        "class Other:\n"
        "    def __init__(self, m):\n"
        "        self.one = ChowElement(self, {m: 1}, 1, m)\n"
    )
    assert mono_constructions(source) == [5, 7, 9, 10, 11, 12, 17]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_module_passes_mono_outside_the_memo(path):
    assert mono_constructions(path.read_text(encoding="utf-8")) == []


# the only functions that build a `CheckResult`, each at module level
CHECK_BUILDERS = ("_check", "_skip", "_window")


def check_constructions(source: str) -> list[int]:
    """Lines that call `CheckResult(...)` outside the module-level
    functions `_check`, `_skip` and `_window` of `verify`.

    Those three build every check positionally, so each check keeps one
    cheap way in and one place where its field order is spelled out.
    """
    tree = ast.parse(source)
    exempt = {
        id(n)
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name in CHECK_BUILDERS
        for n in ast.walk(fn)
    }
    lines = []
    for node in ast.walk(tree):
        if id(node) in exempt or not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "CheckResult":
            lines.append(node.lineno)
    return sorted(lines)


def test_check_constructions_are_detected():
    source = (
        "def _check(name, subject, expected, computed):\n"
        "    return CheckResult(name, subject, expected, computed, 'pass')\n"
        "def _skip(name, subject, reason):\n"
        "    return CheckResult(name, subject, '', '', 'skipped', reason)\n"
        "def f(r):\n"
        "    a = CheckResult('n', r.id, '1', '1', 'pass')\n"
        "    b = verify.CheckResult(name='n', subject=r.id, expected='1',\n"
        "        computed='1', status='pass')\n"
        "    return a, b, CheckResult._fields, Other('n')\n"
        "class Report:\n"
        "    def _window(self):\n"
        "        return CheckResult('n', 's', '', '', 'pass')\n"
    )
    assert check_constructions(source) == [6, 7, 12]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_module_builds_a_check_outside_its_builders(path):
    assert check_constructions(path.read_text(encoding="utf-8")) == []


def assert_lines(source: str) -> list[int]:
    """Lines that hold an `assert` statement.

    `python -O` strips them, so a check there is absent in one mode and
    raises `AssertionError` in the other; a search returns what it finds
    and `verify` compares it with the catalog in every mode.
    """
    return sorted(
        n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert)
    )


def test_asserts_are_detected():
    source = (
        "assert len(IDS) == 3, 'duplicate ids'\n"
        "def f(table):\n"
        "    assert (\n"
        "        sum(table) == 6\n"
        "    )\n"
        "    if not table:\n"
        "        raise AssertionError('empty')\n"
        "    message = 'assert nothing'  # assert in a comment\n"
        "    return [x for x in table if x], message\n"
        "class A:\n"
        "    def go(self):\n"
        "        assert self\n"
    )
    assert assert_lines(source) == [1, 3, 12]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_module_asserts(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []


def dataclass_names(source: str) -> list[str]:
    """Classes decorated with `dataclass`, bare, called or as an attribute."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
                names.append(node.name)
    return sorted(names)


def test_dataclasses_are_detected():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class A: pass\n"
        "@dataclass(frozen=True)\n"
        "class B: pass\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class C: pass\n"
        "class D(NamedTuple): pass\n"
        "@cache\n"
        "class E: pass\n"
    )
    assert dataclass_names(source) == ["A", "B", "C"]


def test_only_family_record_is_a_dataclass():
    # each `@dataclass` execs its generated methods when its module is
    # imported, a cost bytecode does not remove, so every result type is a
    # named tuple
    found = [
        (path.name, name)
        for path in ALL_MODULES
        for name in dataclass_names(path.read_text(encoding="utf-8"))
    ]
    assert found == [("catalog.py", "FamilyRecord")], (
        "only catalog.FamilyRecord may be a dataclass: the planted-error "
        "sweeps derive their catalogs with dataclasses.replace on it; make "
        "any other type a typing.NamedTuple"
    )


def loaded_by(module: str) -> list[str]:
    """`dataclasses` and the package modules, if loaded, after a fresh
    interpreter imports `module`."""
    code = (
        "import sys\n"
        f"import {module}\n"
        "print(*sorted(m for m in sys.modules\n"
        "              if m == 'dataclasses' or m.split('.')[0] == 'delpezzo'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env=child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.decode().split()


def test_chow_loads_no_dataclasses_and_no_other_layer():
    # the engine is imported by every command and benchmark: it stays a
    # plain module, so its import pays for neither `dataclasses` nor the
    # layers above it
    assert loaded_by("delpezzo.chow") == ["delpezzo", "delpezzo.chow"]


def test_bundles_loads_no_dataclasses_and_only_chow():
    # the bundle formulas define no type: a split bundle is its tuple and
    # a rank-2 bundle its tower, so the module needs the engine alone
    assert loaded_by("delpezzo.bundles") == [
        "delpezzo", "delpezzo.bundles", "delpezzo.chow"
    ]


def test_package_root_resolves_only_chow_and_its_names():
    # `delpezzo.chow` and the `__all__` names load on first access; any
    # other probe, `__main__` included, is an AttributeError that imports
    # nothing (`__main__` would run the command line)
    code = (
        "import sys\n"
        "import delpezzo as dp\n"
        "assert not hasattr(dp, '__main__') and not hasattr(dp, 'catalog')\n"
        "assert 'delpezzo.chow' not in sys.modules\n"
        "assert dp.make_tower is dp.chow.make_tower\n"
        "assert all(hasattr(dp, name) for name in dp.__all__)\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'delpezzo'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env=child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().split() == ["delpezzo", "delpezzo.chow"]
