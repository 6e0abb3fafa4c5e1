"""The tolerance table against the library that reads it."""

import ast
import dataclasses
import pathlib
import re
import tokenize

import circlequad
from circlequad.config import Tolerances

SRC = pathlib.Path(circlequad.__file__).parent
TESTS = pathlib.Path(__file__).parent


def test_every_tolerance_is_read():
    # a field no module reads is a knob that turns nothing
    source = "".join(p.read_text() for p in SRC.glob("*.py") if p.name != "config.py")
    unread = [
        f.name for f in dataclasses.fields(Tolerances)
        if not re.search(rf"\bTOL\.{f.name}\b", source)
    ]
    assert unread == []


def test_every_local_tolerance_says_why():
    # a threshold outside config.py needs a comment on its line or the two
    # above, saying why no Tolerances field serves
    bare = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "config.py":
            continue
        with path.open() as fh:
            tokens = list(tokenize.generate_tokens(fh.readline))
        commented = {t.start[0] for t in tokens if t.type == tokenize.COMMENT}
        for t in tokens:
            if t.type == tokenize.NUMBER and re.search(r"[eE]-\d", t.string):
                row = t.start[0]
                if not commented & {row - 2, row - 1, row}:
                    bare.append(f"{path.name}:{row}: {t.line.strip()}")
    assert bare == []


def test_no_unused_imports():
    # a name a module or test file imports and never reads is dead weight;
    # __init__.py imports to re-export, and a __future__ import is a directive
    unused = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{row}: {name}" for name, row in imported.items() if name not in read]
    assert unused == []


def test_all_exports_resolve():
    # a name left in __all__ after its object is gone breaks star imports
    missing = [name for name in circlequad.__all__ if not hasattr(circlequad, name)]
    assert missing == []


def test_no_unused_private_names():
    # a module-level _name (function, class or assignment) that no module
    # reads is dead code left behind by a refactor
    defined, read = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert len(defined) > 20  # the walk found the private names
    assert sorted(f"{row}: {name}" for name, row in defined.items() if name not in read) == []


def test_one_prescription_solve():
    # every prescription, of 2*ell or 2*ell + 1 nodes, is the one coupled
    # pencil: a second linear solve or condition number would be a second
    # prescription solver
    calls = [
        ast.unparse(node.func)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
    ]
    assert calls.count("np.linalg.solve") == 1
    assert calls.count("np.linalg.cond") == 1


def test_one_weights_gate():
    # a rule's weights are gated in one place, ``quadrature.weights``: no
    # other code refuses a weight as nonpositive or reads the sum gate
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {
            id(node)
            for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and f"{path.stem}.{fn.name}" == "quadrature.weights"
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "PositivityViolationError":
                found.append(("PositivityViolationError", id(node) in inside))
            elif isinstance(node, ast.Attribute) and ast.unparse(node) == "TOL.weight_sum":
                found.append(("TOL.weight_sum", id(node) in inside))
    assert {name for name, _ in found} == {"PositivityViolationError", "TOL.weight_sum"}
    assert [name for name, inside_gate in found if not inside_gate] == []


def _callers(name: str) -> set:
    """module.function of every function in the library that calls ``name``."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == name:
                        callers.add(f"{path.stem}.{fn.name}")
    return callers


def test_one_chain_and_one_node_solve():
    # one Levinson chain, built for every rule by ``moment_chain``, and one
    # node solve, on the modified chain of ``zeros_on_circle``: a second
    # caller would be a second chain or a second nodal polynomial
    assert _callers("schur_from_moments") == {"measures.moment_chain"}
    assert _callers("blaschke_solve") == {"qpopuc.zeros_on_circle"}


def test_rule_path_assembles_no_q():
    # one certificate per claim: a rule's nodes are certified on the
    # modified chain, its tail against P and its head against the moments,
    # so Q is assembled only where a check reads it, criterion 7's
    # ``modified_schur``; the prescribed-node residual reads the pencil's
    # affine Q (``test_one_node_residual``)
    assert _callers("assemble") == {"qpopuc.modified_schur"}
    assert _functions_with(
        lambda node: isinstance(node, ast.Name) and node.id == "_spot_points"
    ) == {"qpopuc.modified_schur"}
    assert _functions_with(lambda node: "residual_rows" in ast.unparse(node)) == set()


def test_one_node_residual():
    # one prescribed-node residual, ``AffineQ.residual``, which every
    # prescription and the scan's labels read: a second reader of its gate
    # would be a second residual
    reads = _functions_with(lambda node: ast.unparse(node) == "TOL.node_residual")
    assert reads == {"prescribe.residual"}
    assert _callers("residual") == {"prescribe._pencil_answer", "quadrature.codes"}


def test_one_polynomial_evaluator():
    # polynomials are evaluated by ``poly.horner``: np.polyval or a second
    # Horner loop would be a second evaluator
    assert _functions_with(lambda node: "polyval" in ast.unparse(node)) == set()
    assert _callers("horner") == {
        "poly.__call__", "prescribe.uv_at", "prescribe.fixed_tau", "prescribe.tau_arcs"
    }


def test_one_coefficient_step():
    # Levinson runs on the shared Szego step: a third caller, or a second
    # copy of the step, would be a second coefficient recursion
    assert _callers("_szego_step") == {"opuc.schur_from_moments", "opuc.rho_coeffs"}


def test_every_parameter_is_read():
    # a parameter no line of its function reads is an input that changes
    # nothing; self, cls and _-prefixed names may go unread, and an
    # augmented assignment (an output buffer's ``arg += ...``) reads
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = [node for stmt in fn.body for node in ast.walk(stmt)]
            targets = [node.target for node in body if isinstance(node, ast.AugAssign)]
            read = {n.id for n in body if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            read |= {t.id for t in targets if isinstance(t, ast.Name)}
            unread += [
                f"{path.name}:{fn.lineno}: {fn.name}({name})"
                for name in params
                if name not in read and name not in ("self", "cls") and not name.startswith("_")
            ]
    assert unread == []


def _functions_with(match) -> set:
    """module.function of every function in the library holding a node
    for which ``match`` is true."""
    return {
        f"{path.stem}.{fn.name}"
        for path in sorted(SRC.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, ast.FunctionDef) and any(match(node) for node in ast.walk(fn))
    }


def test_one_schur_cohn_recursion():
    # one Schur-Cohn kernel, read by the single test, the scan's two label
    # passes and the arcs: a second caller, or a second division by
    # 1 - |kappa|**2, would be a second recursion
    assert _callers("schur_cohn_rows") == {
        "opuc.schur_cohn", "quadrature._root_codes", "quadrature.codes", "prescribe.tau_arcs"
    }
    norm = "1.0 - np.abs(kappa) ** 2"

    def divides_by_norm(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return ast.unparse(node.right) == norm
        return (
            isinstance(node, ast.Call)
            and ast.unparse(node.func).split(".")[-1] == "divide"
            and len(node.args) > 1
            and ast.unparse(node.args[1]) == norm
        )

    assert _functions_with(divides_by_norm) == {"opuc.schur_cohn_rows"}


def _deviation_from_one(node) -> bool:
    """Is ``node`` abs(abs(x) - 1), the distance of |x| from 1?"""

    def is_abs(call):
        return isinstance(call, ast.Call) and ast.unparse(call.func) in ("abs", "np.abs")

    if not is_abs(node) or not node.args:
        return False
    inner = node.args[0]
    return (
        isinstance(inner, ast.BinOp)
        and isinstance(inner.op, ast.Sub)
        and is_abs(inner.left)
        and isinstance(inner.right, ast.Constant)
        and inner.right.value == 1
    )


def test_unit_modulus_gates_refuse_nan():
    # a gate written "deviation > tol" is False on a NaN deviation and lets
    # the NaN through; "not (deviation <= tol)" refuses it
    open_gates = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            for left, op, right in zip(sides, node.ops, sides[1:]):
                if (isinstance(op, (ast.Gt, ast.GtE)) and _deviation_from_one(left)) or (
                    isinstance(op, (ast.Lt, ast.LtE)) and _deviation_from_one(right)
                ):
                    open_gates.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert open_gates == []
    # the walk sees the gates it checks
    assert len(_functions_with(_deviation_from_one)) >= 8


def _is_root_finder(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = ast.unparse(node.func)
    return name == "np.roots" or name.startswith("np.linalg.eig") or name.endswith(".roots")


def test_tau_for_omega_in_closed_form():
    # omega = N / conj(N) with N affine in tau: no root finder, no second
    # omega formula, and no fixed gate of its own
    assert "prescribe.tau_for_omega" not in _functions_with(_is_root_finder)
    assert "prescribe.tau_for_omega" not in _functions_with(
        lambda node: isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
    )
    assert "_omega_from_p0" not in "".join(p.read_text() for p in SRC.glob("*.py"))


def test_one_order_collapse_test():
    # sigma = 0 is decided in one place: tau_for_omega's t and
    # orthogonality_params' sigma meet the same bound
    reads = _functions_with(lambda node: ast.unparse(node) == "TOL.sigma_collapse")
    assert reads == {"qpopuc.order_collapsed"}
    assert _callers("order_collapsed") == {"qpopuc.orthogonality_params", "prescribe.tau_for_omega"}


def test_roots_only_for_arcs_and_polynomials():
    # np.roots finds the boundaries of tau_arcs and the zeros of a
    # ComplexPoly (``poly.roots``); a further call would be a second root
    # finder
    def calls_roots(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func) == "np.roots"

    assert _functions_with(calls_roots) == {"prescribe.tau_arcs", "poly.roots"}
    nodes = [node for path in SRC.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))]
    assert sum(map(calls_roots, nodes)) == 2
