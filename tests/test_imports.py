"""Every name a module of the package imports is used in that module, only
``eigen.py`` reaches ``numpy.linalg``, ``Symmetroid.__init__`` makes no
per-entry ``compose``, ``inv`` or ``unit`` call, ``exchange_identity_report``
has no loop, the quotient operations contract nothing of their own and
run on the groupoid the q-rules build, not on a permuted S(pair(n)), only
``measure._parts`` reads numerators and denominators, and only where a
``measure._Table`` is made, exact products and sums go through the two
kernels of ``measure``, only ``measure._narrowed`` names int64,
``positivity_falsifier`` makes ``AlgebraElement``s only for its witness,
eigenvectors are solved only where they are read, tol is compared by one PSD
decider, and the quotient's rules
only read, compare and copy fields.  Among the tests, only ``oracles.py``
defines reference loops, and no test module imports another.

``__init__.py`` is exempt from the first check: its imports are the package's
re-exports.
"""

import ast
from pathlib import Path

import pytest

import groupoidqm

PACKAGE = Path(groupoidqm.__file__).parent
# names kept on purpose, with the reason
KEPT = {
    ("algebra.py", "hermitian_eigh"): "perfbench's tracer test wraps this binding",
    ("channels.py", "hermitian_eigh"): "perfbench's tracer test wraps this binding",
}


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


Q_RULES = {
    "symmetroid.py": (
        "q_vertical_compose", "q_vertical_unit", "q_vertical_inverse",
        "q_horizontal_compose", "q_horizontal_unit", "q_horizontal_inverse",
        "q_horizontally_composable",
    ),
    "selftest.py": ("_exchange_quadruple",),
}
# what a q-rule body may hold besides field reads, tuples, the docstring and
# the raise with its f-string message
Q_RULE_NODES = (
    ast.Expr, ast.Return, ast.Assign, ast.If, ast.Raise, ast.Tuple, ast.Name, ast.Load,
    ast.Store, ast.Attribute, ast.Call, ast.Compare, ast.Eq, ast.BinOp, ast.BitAnd,
    ast.UnaryOp, ast.Not, ast.Constant, ast.JoinedStr, ast.FormattedValue,
)
Q_RULE_CALLS = {"QClass", "_everywhere", "q_horizontally_composable", "NotComposableError"}


def q_rule_offences(fn: ast.FunctionDef) -> list[str]:
    """What in the body of ``fn`` does more than read, compare with ``==``,
    ``&`` and copy fields: arithmetic, an integer constant, indexing, a
    comparison other than ``==``, a call other than the rules' own."""
    offences = []
    for node in (n for stmt in fn.body for n in ast.walk(stmt)):
        if not isinstance(node, Q_RULE_NODES):
            offences.append(type(node).__name__)
        elif isinstance(node, ast.Constant) and not isinstance(node.value, str):
            offences.append(f"constant {node.value!r}")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) not in Q_RULE_CALLS:
            offences.append(f"call {ast.unparse(node.func)}")
        elif isinstance(node, ast.Attribute) and not isinstance(node.value, ast.Name):
            offences.append(f"read {ast.unparse(node)}")
    return offences


@pytest.mark.parametrize(
    "module, name", [(m, f) for m, names in Q_RULES.items() for f in names], ids=lambda v: v
)
def test_q_rules_only_compare_and_copy_fields(module, name):
    # the exchange identity and the quotient laws are decided on one
    # representative per equality pattern of their free indices; that holds
    # only while the rules commute with relabelling the points, which
    # arithmetic, an integer constant or indexing would break
    tree = ast.parse((PACKAGE / module).read_text())
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
    assert q_rule_offences(fn) == []


def test_q_rule_guard_sees_arithmetic_constants_indexing_and_order():
    planted = ast.parse(
        "def rule(q2, q1):\n"
        "    if q2.x < q1.y:\n"
        "        raise ValueError(q2)\n"
        "    return QClass(q2.z + 1, q1[0], -q1.x, q2.w % q1.w)"
    ).body[0]
    assert set(q_rule_offences(planted)) == {
        "Lt", "call ValueError", "Add", "constant 1", "Subscript", "constant 0", "USub", "Mod",
    }


def second_algebra_offences(symalgebra: ast.Module, contract: ast.FunctionDef) -> list[str]:
    """What would let the quotient contract its kernels beside the S(G)
    algebra: ``contract`` or an ``einsum`` named in ``symalgebra``, and a
    ``_Table`` operand of ``contract``, tested for or annotated."""
    names = {n.id for n in ast.walk(symalgebra) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(symalgebra) if isinstance(n, ast.Attribute)}
    names |= set(imported_names(symalgebra))
    offences = [f"symalgebra names {x}" for x in sorted(names) if x == "contract" or "einsum" in x]
    for node in ast.walk(contract):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            if "_Table" in ast.unparse(node.args[1]):
                offences.append(f"contract tests {ast.unparse(node)}")
    vararg = contract.args.vararg
    if vararg.annotation is None or "_Table" in ast.unparse(vararg.annotation):
        offences.append("contract's operands are not annotated as arrays alone")
    return offences


def names_outside_annotations(tree) -> set:
    """The names and attributes that ``tree`` reads, its type annotations left out."""
    notes = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    notes += [n.returns for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    skipped = {id(sub) for note in notes if note is not None for sub in ast.walk(note)}
    reads = (n for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute)) and id(n) not in skipped)
    return {n.id if isinstance(n, ast.Name) else n.attr for n in reads}


def test_quotient_algebra_is_the_general_one():
    # convolve_S, involute_S and rep_operator are convolve, involute and
    # left_regular_matrix on quotient_groupoid(n), which the q-rules build; a
    # contraction of symalgebra's own, a _Table operand of contract that
    # weights one, or a walk through S(pair(n)) and a permutation into class
    # order would define the quotient algebra a second time
    symalgebra = ast.parse((PACKAGE / "symalgebra.py").read_text())
    assert second_algebra_offences(symalgebra, functions("algebra.py")["contract"]) == []
    assert {"convolve", "involute", "left_regular_matrix"} <= called_names(symalgebra)
    assert list(methods("symalgebra.py", "QuotientMeasure")) == ["__init__"]
    assert {"Symmetroid", "project", "argsort", "ix_"}.isdisjoint(names_outside_annotations(symalgebra))
    rules = {"q_vertical_compose", "q_vertical_inverse", "q_vertical_unit"}
    assert rules <= called_names(functions("symmetroid.py")["quotient_groupoid"])
    assert {"reshape", "take"}.isdisjoint(methods("measure.py", "_Table"))


def test_second_algebra_guard_sees_planted_contractions():
    symalgebra = ast.parse(
        "from .algebra import contract\n"
        "def convolve_S(f, g, qm):\n"
        "    t = np.einsum('lrsm,lr,ms->lrsm', f, qm.nu, qm.nu)\n"
        "    return contract('lrsm,rjks->ljkm', t, g)\n"
    )
    (contract,) = ast.parse(
        "def contract(subscripts, *operands: np.ndarray | _Table):\n"
        "    return [op.read() if isinstance(op, (_Table, list)) else op for op in operands]\n"
    ).body
    assert second_algebra_offences(symalgebra, contract) == [
        "symalgebra names contract",
        "symalgebra names einsum",
        "contract tests isinstance(op, (_Table, list))",
        "contract's operands are not annotated as arrays alone",
    ]


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



def qualified_uses(test, modules=None) -> set:
    """(module, name) of every node of the package for which test(node)
    holds, named by its top-level definition, and a method as Class.method."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")) if modules is None else [PACKAGE / m for m in modules]:
        found |= {(path.name, name) for name, node in qualified_nodes(ast.parse(path.read_text())) if test(node)}
    return found


def qualified_nodes(tree):
    """(name, node) for every node of tree under a top-level statement, named
    by its top-level definition, and within a class by its method."""
    for top in tree.body:
        items = top.body if isinstance(top, ast.ClassDef) else [top]
        for item in items:
            name = getattr(top, "name", None)
            if item is not top and isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{top.name}.{item.name}"
            yield from ((name, node) for node in ast.walk(item))


DECIDER = "_PSDVerdicts"
# the checks that read a tol and decide no positive semidefiniteness
NOT_PSD = {
    ("algebra.py", "_Values.allclose"),
    ("algebra.py", "StateFunction.__init__"),
    ("algebra.py", "evaluate_state"),
    ("channels.py", "tomogram"),
}


def compares_tol(node) -> bool:
    """Whether node is a comparison with an operand that reads a name or an
    attribute called ``tol``."""
    return isinstance(node, ast.Compare) and any(
        isinstance(n, ast.Name) and n.id == "tol" or isinstance(n, ast.Attribute) and n.attr == "tol"
        for n in ast.walk(node)
    )


def tol_comparisons(sources: dict) -> set:
    """(module, name) of every comparison with tol in the given module sources."""
    return {
        (module, name)
        for module, source in sources.items()
        for name, node in qualified_nodes(ast.parse(source))
        if compares_tol(node)
    }


PSD_MODULES = ("algebra.py", "channels.py")


def test_tol_is_compared_in_one_psd_decider():
    # every PSD verdict is _PSDVerdicts' decision, and its constructor is the
    # one function that compares a defect or an eigenvalue with tol; a second
    # comparison elsewhere would be a second tolerance rule beside it
    sources = {m: (PACKAGE / m).read_text() for m in PSD_MODULES}
    assert tol_comparisons(sources) - NOT_PSD == {("algebra.py", f"{DECIDER}.__init__")}


def test_tol_guard_sees_a_comparison_planted_in_is_cp():
    sources = {m: (PACKAGE / m).read_text() for m in PSD_MODULES}
    verdict = "    return psd_verdict(to_choi(ch).matrix, tol)\n"
    assert verdict in sources["channels.py"]
    sources["channels.py"] = sources["channels.py"].replace(
        verdict,
        "    res = psd_verdict(to_choi(ch).matrix, tol)\n"
        "    res.ok = res.ok and res.min_eigenvalue >= -tol\n"
        "    return res\n",
    )
    assert tol_comparisons(sources) - NOT_PSD == {
        ("algebra.py", f"{DECIDER}.__init__"), ("channels.py", "is_cp")
    }


def test_eigenvectors_are_solved_only_where_read():
    # every solve is the PSD decider's or PSDResult.eigenvectors', which solves
    # when read; the decider solves eigenvectors only when asked, and only the
    # Kraus factorisation asks; a reference that is not a call (a partial, an
    # alias) could hide a solve, so there is none
    def names_solver(node):
        return (
            isinstance(node, ast.Name) and node.id == "hermitian_eigh"
            or isinstance(node, ast.Attribute) and node.attr == "hermitian_eigh"
        )

    def solves(node):
        return isinstance(node, ast.Call) and names_solver(node.func)

    def asks_vectors(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == DECIDER and (
            len(node.args) > 2 or any(
                k.arg == "vectors" and not (isinstance(k.value, ast.Constant) and k.value.value is False)
                for k in node.keywords
            )
        )

    assert qualified_uses(solves) == {
        ("algebra.py", f"{DECIDER}.__init__"),
        ("algebra.py", f"{DECIDER}.verdict"),
        ("algebra.py", "PSDResult.eigenvectors"),
    }
    assert qualified_uses(asks_vectors) == {("channels.py", "choi_kraus_decomposition")}
    nodes = [n for path in PACKAGE.glob("*.py") for n in ast.walk(ast.parse(path.read_text()))]
    assert sum(map(names_solver, nodes)) == sum(map(solves, nodes))


TESTS = Path(__file__).parent
ORACLE_PREFIXES = ("loop_", "reference_", "ref_", "old_", "einsum_")


def statements(nodes):
    """The statements among nodes and in their bodies, at any depth."""
    for node in nodes:
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from statements(getattr(node, field, ()))


def oracle_offences(tree) -> list[str]:
    """The module-level reference functions a test module defines and the
    test modules it imports from."""
    offences = [
        f"defines {node.name}"
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith(ORACLE_PREFIXES)
    ]
    for node in statements(tree.body):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        offences += [f"imports {m}" for m in modules if m.split(".")[0].startswith("test_")]
    return offences


def test_oracles_are_defined_once():
    # a parity test's reference lives in tests/oracles.py, so that each
    # operation has one oracle; a loop of a test module's own, or one read
    # from another test module, would grow a second generation beside it
    modules = sorted(p for p in TESTS.glob("*.py") if p.name != "oracles.py")
    found = {p.name: oracle_offences(ast.parse(p.read_text())) for p in modules}
    assert {name: offences for name, offences in found.items() if offences} == {}
    assert "test_imports.py" in found


def test_oracle_guard_sees_definitions_and_test_imports():
    planted = ast.parse(
        "import test_algebra\n"
        "from test_exact_path import measures\n"
        "def loop_convolve(f, g, m):\n"
        "    from test_gather_parity import loop_involute\n"
        "def einsum_apply(kernel, psi, n):\n"
        "    pass\n"
        "class Helpers:\n"
        "    def loop_inside_a_class(self):\n"
        "        pass\n"
        "def oracle_of_another_name():\n"
        "    import oracles\n"
        "    try:\n"
        "        pass\n"
        "    except ImportError:\n"
        "        import test_channels.fixtures\n"
    )
    assert sorted(oracle_offences(planted)) == [
        "defines einsum_apply",
        "defines loop_convolve",
        "imports test_algebra",
        "imports test_channels.fixtures",
        "imports test_exact_path",
        "imports test_gather_parity",
    ]
