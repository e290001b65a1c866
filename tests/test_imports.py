"""Every name a module of the package imports is used in that module, only
``eigen.py`` reaches ``numpy.linalg``, ``Symmetroid.__init__`` makes no
per-entry ``compose``, ``inv`` or ``unit`` call, ``exchange_identity_report``
has no loop, ``QuotientMeasure`` defines no method but ``__init__``,
only ``measure._parts`` reads numerators and denominators, and only where a
``measure._Table`` is made, exact products and sums go through the two
kernels of ``measure``, only ``measure._narrowed`` names int64,
``positivity_falsifier`` makes ``AlgebraElement``s only for its witness, and
eigenvectors are solved only where they are read.

``__init__.py`` is exempt from the first check: its imports are the package's
re-exports.
"""

import ast
from pathlib import Path

import pytest

import groupoidqm

PACKAGE = Path(groupoidqm.__file__).parent
# names kept on purpose, with the reason
KEPT = {("algebra.py", "hermitian_eigh"): "perfbench's tracer test wraps this binding"}


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    unused = [
        name for name in imported_names(tree)
        if name not in used and (path.name, name) not in KEPT
    ]
    assert unused == []


def reaches_linalg(tree) -> bool:
    """Whether the module reads ``<x>.linalg`` or imports a ``linalg`` module."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names += [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    return any("linalg" in name.split(".") for name in names)


def test_only_eigen_solves():
    # every solve goes through eigen.hermitian_eigh, the one entry point that
    # psd_verdict calls and the benchmark's tracer wraps
    modules = sorted(PACKAGE.glob("*.py"))
    solvers = [p.name for p in modules if reaches_linalg(ast.parse(p.read_text()))]
    assert solvers == ["eigen.py"]


def methods(module: str, name: str) -> dict:
    """The functions defined in the body of class ``name`` of ``module``, by name."""
    tree = ast.parse((PACKAGE / module).read_text())
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name]
    return {n.name: n for n in cls.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_symmetroid_tables_are_gathers():
    # Symmetroid.__init__ builds its tables from index arrays; a per-entry
    # compose, inv or unit call there would bring back the constructor loop
    init = methods("symmetroid.py", "Symmetroid")["__init__"]
    called = {
        node.func.attr
        for node in ast.walk(init)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    assert "composites" in called
    assert called.isdisjoint({"compose", "inv", "unit"})


def test_exchange_check_has_no_per_quadruple_loop():
    # exchange_identity_report composes all quadruples at once through the
    # quotient's rules on arrays; a loop or comprehension there would bring
    # back the per-quadruple check
    tree = ast.parse((PACKAGE / "selftest.py").read_text())
    (report,) = [
        n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "exchange_identity_report"
    ]
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    assert [type(n).__name__ for n in ast.walk(report) if isinstance(n, loops)] == []


def test_quotient_measure_is_a_view_of_its_base():
    # μ₂, ν₂ and Δ₂ are SymmetroidMeasure's; a method or table of the quotient's
    # own would define the S(G) algebra a second time
    assert list(methods("symalgebra.py", "QuotientMeasure")) == ["__init__"]
    assert groupoidqm.QuotientMeasure.__slots__ == ("base",)


def test_one_reader_of_the_exact_format():
    # measure._parts is the one place that reads numerators and denominators;
    # _positive's sign test is the one exception, so that a second integer
    # format cannot grow beside it
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator"):
                    readers.add((path.name, getattr(top, "name", None)))
    assert readers == {("measure.py", "_parts"), ("measure.py", "_positive")}


def test_positive_type_blocks_read_through_composites():
    # _fiber_gathers reads each block through FiniteGroupoid.composites; a
    # gather of its own from composable_arrays would duplicate it, and a
    # tobytes key in the walk would bring back the per-object dedup
    tree = ast.parse((PACKAGE / "algebra.py").read_text())
    called = {}
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            called[top.name] = {
                node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                for node in ast.walk(top)
                if isinstance(node, ast.Call)
            }
    assert "composites" in called["_fiber_gathers"]
    assert called["_fiber_gathers"].isdisjoint({"composable_arrays", "searchsorted"})
    assert "tobytes" not in called["positive_type_verdicts"]


def functions(module: str) -> dict:
    """The top-level functions of ``module``, by name."""
    tree = ast.parse((PACKAGE / module).read_text())
    return {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}


def called_names(node) -> set:
    return {
        call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
    }


def test_exact_arithmetic_goes_through_two_kernels():
    # measure._product_parts and measure._group_sums do the exact products and
    # sums; a helper of symalgebra's own over the exact format, a second
    # equality decider or a per-check loop would bring back what they merged
    tree = ast.parse((PACKAGE / "symalgebra.py").read_text())
    from_measure = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "measure"
        for alias in node.names
    }
    assert from_measure.isdisjoint({"_parts", "_over_lcm", "_is_exact", "_gather"})
    assert "_exactly_equal" not in functions("measure.py")
    for module, name in (("measure.py", "verify_disintegration"), ("symalgebra.py", "verify_modular_formula")):
        assert [n for n in ast.walk(functions(module)[name]) if isinstance(n, ast.For)] == []
    convolve = called_names(functions("algebra.py")["_convolve_numerators"])
    assert "_group_sums" in convolve and "_over_lcm" not in convolve


def top_level_uses(test) -> set:
    """(module, top-level name) of every node of the package for which test(node) holds."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if any(test(node) for node in ast.walk(top)):
                found.add((path.name, getattr(top, "name", None)))
    return found


def test_int64_only_in_the_bit_bound_helper():
    # exact values become int64 only in measure._narrowed, which checks the bit
    # bound first: np.einsum and np.add.at wrap silently on int64 overflow
    def names_int64(node):
        return (
            isinstance(node, ast.Attribute) and node.attr == "int64"
            or isinstance(node, ast.Name) and node.id == "int64"
            or isinstance(node, ast.Constant) and node.value == "int64"
        )

    assert top_level_uses(names_int64) == {("measure.py", "_narrowed")}


def test_measure_tables_are_read_once():
    # a value list is read by measure._parts only when a _Table is made of it,
    # so a measure's tables are read once, in its constructor; symalgebra
    # builds S(G)'s tables through GroupoidMeasure and imports no helper of the
    # integer form, and no per-entry product helper sits beside the kernels
    def calls_parts(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_parts"

    assert top_level_uses(calls_parts) == {("measure.py", "_Table")}
    tree = ast.parse((PACKAGE / "symalgebra.py").read_text())
    from_measure = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "measure"
        for alias in node.names
    }
    helpers = {"_parts", "_over_lcm", "_is_exact", "_narrowed", "_Table", "_product_parts", "_group_sums"}
    assert from_measure.isdisjoint(helpers | {"_lowest_terms"})
    assert "_products" not in functions("measure.py")


def test_falsifier_works_on_arrays_up_to_its_witness():
    # positivity_falsifier draws a chunk's states as one stack and builds the
    # kernel tensor of id_M ⊗ K once; a per-trial random_positive_type, an
    # extended Channel or an AlgebraElement outside the witness would bring
    # back the per-trial conversions
    falsifier = functions("channels.py")["positivity_falsifier"]
    called = called_names(falsifier)
    assert called.isdisjoint({"random_positive_type", "extend_with_identity", "positive_type_verdicts"})
    assert {"_random_gram_states", "_extended_tensor", "_apply_tensor", "_PositiveTypeStack"} <= called
    witnesses = [
        node for node in ast.walk(falsifier)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "PositivityWitness"
    ]
    assert len(witnesses) == 1
    inside = {id(node) for node in ast.walk(witnesses[0])}
    elements = [
        node for node in ast.walk(falsifier)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "AlgebraElement"
    ]
    assert len(elements) == 2 and all(id(node) in inside for node in elements)



def test_eigenvectors_are_solved_only_where_read():
    # a verdict reads only eigenvalues, so every hermitian_eigh call without
    # vectors=False is in PSDResult (its eigenvector property, solved when
    # read) or in the Kraus factorisation; a reference that is not a call (a
    # partial, an alias) could hide an eager vector solve, so there is none
    def names_solver(node):
        return (
            isinstance(node, ast.Name) and node.id == "hermitian_eigh"
            or isinstance(node, ast.Attribute) and node.attr == "hermitian_eigh"
        )

    def solves(node):
        return isinstance(node, ast.Call) and names_solver(node.func)

    def solves_vectors(node):
        return solves(node) and not any(
            k.arg == "vectors" and isinstance(k.value, ast.Constant) and k.value.value is False
            for k in node.keywords
        )

    assert top_level_uses(solves_vectors) == {
        ("algebra.py", "PSDResult"),
        ("channels.py", "choi_kraus_decomposition"),
    }
    nodes = [n for path in PACKAGE.glob("*.py") for n in ast.walk(ast.parse(path.read_text()))]
    assert sum(map(names_solver, nodes)) == sum(map(solves, nodes))
