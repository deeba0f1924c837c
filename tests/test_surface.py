"""Every public module-level function of gplab, and every public method of
CoxeterGroup, of the graph classes (SimplicialGraph, Walk), of the
vertex-algebra classes (FiniteDimAlgebra, Element, StateSpec, GnsRep,
VertexSite), of OperatorMatrix and of ElementaryTerm, is reached from the
package itself, not only from tests, or is one of the few named entry
points below; every public method of any other class of gplab is reached,
with no entry point.  And every defaulted parameter of a gplab function is
set by some call in the package, or is one of the few named below: a
default that no caller overrides is a constant.

The package sources are parsed, not imported.  A function counts as reached
when some module of src/gplab names it outside its own definition: by its
bare name inside its home module or after `from .<home> import <name>`, or
as an attribute of a name bound to the home module (`from . import fock as
fk`, then `fk.<name>`).  A method counts as reached when any module reads
an attribute of that name outside the method's own definition.  A call
sets a defaulted parameter when it passes it by keyword or by position, or
may through *args or **kwargs; calls are matched by the called name alone
(a class name for __init__), so the lint can miss an unset default but
never flags a set one.
"""
import ast
from pathlib import Path
from typing import Optional

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gplab"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))
# Public although the package never calls them: the annihilation part of
# lambda_v and the word projection p_w are built only by callers outside it
# (the tests, and the benchmark's trace of annihilation); hecke_gns, the
# Hecke vertex's GNS representation on a vertex of its own, is exported for
# callers outside the package, while site_from_hecke builds it on the
# site's own vertex.
ENTRY_POINTS = {"fock": {"annihilation", "word_projection"}, "algebras": {"hecke_gns"}}
# The meet of the weak order (checked by acceptance criterion 1) and the
# brute-force join oracle that pins join_tuple.
GROUP_ENTRY_POINTS = {"meet_tuple", "join_via_ball"}
# The predicates that the tests check cliques and walks with.
GRAPH_ENTRY_POINTS = {
    "SimplicialGraph": {"is_clique"},
    "Walk": {"is_valid", "is_closed", "covers"},
}
VERTEX_CLASSES = ("FiniteDimAlgebra", "Element", "StateSpec", "GnsRep", "VertexSite")
# The dense bridge that the oracles read: tests compare operators as dense
# arrays, and no reader in the package needs one.
OPERATOR_ENTRY_POINTS = {"toarray"}
# The one defaulted parameter that the package never sets: the command
# line's argv, set by callers outside it (the tests).
UNSET_DEFAULTS = {("cli", "main", "argv")}


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def _public_functions(body: list[ast.stmt]) -> list[ast.FunctionDef]:
    return [n for n in body if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")]


def _references(module: str, tree: ast.Module, home: str, own: str) -> bool:
    """Whether `module` names home.own outside the definition of home.own."""
    module_aliases = set()  # names bound to the home module
    name_aliases = {own} if module == home else set()  # names bound to home.own
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name == home:
                    module_aliases.add(alias.asname or alias.name)
                elif node.module == home and alias.name == own:
                    name_aliases.add(alias.asname or alias.name)

    def visit(node: ast.AST) -> bool:
        if module == home and isinstance(node, ast.FunctionDef) and node.name == own and node in tree.body:
            return False
        if isinstance(node, ast.Name) and node.id in name_aliases and isinstance(node.ctx, ast.Load):
            return True
        if (
            isinstance(node, ast.Attribute)
            and node.attr == own
            and isinstance(node.value, ast.Name)
            and node.value.id in module_aliases
        ):
            return True
        return any(visit(child) for child in ast.iter_child_nodes(node))

    return visit(tree)


def _reads_attribute(tree: ast.AST, name: str, skip: ast.FunctionDef) -> bool:
    """Whether `tree` reads an attribute `name` outside the definition `skip`."""
    if tree is skip:
        return False
    if isinstance(tree, ast.Attribute) and tree.attr == name:
        return True
    return any(_reads_attribute(child, name, skip) for child in ast.iter_child_nodes(tree))


def _assert_unreached_are(unreached: list[str], entry_points: set[str]):
    assert sorted(set(unreached) - entry_points) == []
    # an entry point that the package comes to call leaves the list
    assert sorted(entry_points - set(unreached)) == []


@pytest.mark.parametrize("home", MODULES)
def test_public_functions_are_reached_from_the_package(home):
    trees = _trees()
    unreached = [
        fn.name
        for fn in _public_functions(trees[home].body)
        if not any(_references(module, tree, home, fn.name) for module, tree in trees.items())
    ]
    _assert_unreached_are(unreached, ENTRY_POINTS.get(home, set()))


def _unreached_methods(home: str, name: str) -> list[str]:
    trees = _trees()
    (cls,) = [n for n in trees[home].body if isinstance(n, ast.ClassDef) and n.name == name]
    return [
        fn.name
        for fn in _public_functions(cls.body)
        if not any(_reads_attribute(tree, fn.name, fn) for tree in trees.values())
    ]


def test_coxeter_group_methods_are_reached_from_the_package():
    _assert_unreached_are(_unreached_methods("words", "CoxeterGroup"), GROUP_ENTRY_POINTS)


@pytest.mark.parametrize("name", sorted(GRAPH_ENTRY_POINTS))
def test_graph_methods_are_reached_from_the_package(name):
    _assert_unreached_are(_unreached_methods("graphs", name), GRAPH_ENTRY_POINTS[name])


@pytest.mark.parametrize("name", VERTEX_CLASSES)
def test_vertex_algebra_methods_are_reached_from_the_package(name):
    _assert_unreached_are(_unreached_methods("algebras", name), set())


def test_operator_matrix_methods_are_reached_from_the_package():
    _assert_unreached_are(_unreached_methods("fock", "OperatorMatrix"), OPERATOR_ENTRY_POINTS)


def test_elementary_term_methods_are_reached_from_the_package():
    _assert_unreached_are(_unreached_methods("elementary", "ElementaryTerm"), set())


# The classes whose methods the tests above check, with their entry points.
NAMED_CLASSES = {("words", "CoxeterGroup"), ("fock", "OperatorMatrix"), ("elementary", "ElementaryTerm")}
NAMED_CLASSES |= {("graphs", name) for name in GRAPH_ENTRY_POINTS} | {("algebras", name) for name in VERTEX_CLASSES}
OTHER_CLASSES = sorted(
    (home, node.name)
    for home, tree in _trees().items()
    for node in tree.body
    if isinstance(node, ast.ClassDef) and (home, node.name) not in NAMED_CLASSES
)


@pytest.mark.parametrize("home,name", OTHER_CLASSES, ids=[f"{home}.{name}" for home, name in OTHER_CLASSES])
def test_other_class_methods_are_reached_from_the_package(home, name):
    _assert_unreached_are(_unreached_methods(home, name), set())


def _functions(node: ast.AST, cls: Optional[ast.ClassDef] = None):
    """(enclosing class or None, definition) of every function under node,
    methods and nested functions included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _functions(child, child)
        elif isinstance(child, ast.FunctionDef):
            yield cls, child
            yield from _functions(child)
        else:
            yield from _functions(child, cls)


def _defaulted(cls: Optional[ast.ClassDef], fn: ast.FunctionDef) -> list[tuple[Optional[int], str]]:
    """(position among a call's positional arguments, None for a keyword-only
    parameter; name) of each defaulted parameter of fn."""
    args = fn.args
    positional = args.posonlyargs + args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    if cls is not None and not static:
        positional = positional[1:]  # self or cls, bound by the call
    first = len(positional) - len(args.defaults)
    out = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    return out + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _sets(call: ast.Call, position: Optional[int], name: str) -> bool:
    if any(k.arg in (None, name) for k in call.keywords) or any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def test_defaulted_parameters_are_set_from_the_package():
    trees = _trees()
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = {
        (home, fn.name, name)
        for home, tree in trees.items()
        for cls, fn in _functions(tree)
        for position, name in _defaulted(cls, fn)
        if not any(
            _sets(call, position, name)
            for call in calls.get(cls.name if cls is not None and fn.name == "__init__" else fn.name, [])
        )
    }
    assert sorted(unset - UNSET_DEFAULTS) == []
    # a named exception that the package comes to set leaves the list
    assert sorted(UNSET_DEFAULTS - unset) == []
