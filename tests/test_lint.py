"""Static checks on the package source."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import freesub


def test_no_assert_statements():
    # `python -O` strips assert statements, so a certification written as one
    # would silently stop running; checks must raise explicitly
    files = sorted(Path(freesub.__file__).parent.rglob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _package_trees():
    for path in sorted(Path(freesub.__file__).parent.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_one_packing_helper():
    # Kronecker packing (int <-> bytes) lives in poly.kronecker alone: a
    # second packer would carry its own slot bound, and a slot too narrow
    # corrupts products without any error
    inside, outside = [], []
    for path, tree in _package_trees():
        helper = set()
        if path.name == "poly.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "kronecker":
                    helper |= {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("from_bytes", "to_bytes"):
                (inside if id(node) in helper else outside).append(f"{path.name}:{node.lineno}")
    assert inside
    assert outside == []


def test_unpacked_residues_are_not_reduced_again():
    # `unpack` returns residues in [0, modulus): a caller that reduces them
    # again pays a Python pass over every term, the cost the packed
    # reduction inside `kronecker` removes
    def unpacks(node) -> bool:
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "unpack"

    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp))
        and isinstance(node.elt, ast.BinOp)
        and isinstance(node.elt.op, ast.Mod)
        and any(unpacks(gen.iter) for gen in node.generators)
    ]
    assert found == []


def test_int_digit_limit_is_set_in_cli_only():
    # the limit on int -> str conversion is process-wide: it is lifted, and
    # restored, in one place that prints exact counts
    name = "set_int_max_str_digits"
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _package_trees()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.alias) and node.name == name)
        or (isinstance(node, ast.Constant) and node.value == name)
    ]
    assert found
    assert [f for f in found if not f.startswith("cli.py:")] == []


def test_no_module_reads_the_environment():
    # options come from the command line only: an environment variable read
    # anywhere in the package would be a second, unlisted way to set them
    names = {"environ", "environb", "getenv", "getenvb"}
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _package_trees()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in names)
        or (isinstance(node, ast.ImportFrom) and any(a.name in names for a in node.names))
    ]
    assert found == []


def _owners(tree) -> dict:
    """id(node) -> name of the innermost function around it (None at module
    level)."""
    owner = {}

    def walk(node, name):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else name
            owner[id(child)] = inner
            walk(child, inner)

    walk(tree, None)
    return owner


def test_newton_inverse_only_where_it_pays():
    # a Newton inverse of rev(f) costs several products: it pays for a long
    # quotient, or where one inverse serves many calls (a fixed modulus, a
    # blocked series division); a short division must not build one per call
    allowed = {
        ("poly.py", "__divmod__", True),
        ("poly.py", "_mulmod", False),
        ("poly.py", "series_div", False),
        ("poly.py", "_inverse", False),
    }
    found = set()
    for path, tree in _package_trees():
        owner = _owners(tree)
        long_branch = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.If)
                and owner[id(node)] == "__divmod__"
                and any(isinstance(n, ast.Name) and n.id == "SCHOOLBOOK_MAX" for n in ast.walk(node.test))
            ):
                long_branch |= {id(n) for stmt in node.orelse for n in ast.walk(stmt)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "_inverse":
                    found.add((path.name, owner[id(node)], id(node) in long_branch))
    assert ("poly.py", "__divmod__", True) in found
    assert found <= allowed


def _function(tree, name: str) -> ast.FunctionDef:
    (node,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name]
    return node


def _poly_tree():
    return next(tree for path, tree in _package_trees() if path.name == "poly.py")


def test_division_has_no_exact_path():
    # exact polynomials are never divided: division, monic, series division
    # and truncated series products run over Z/p^alpha only, so none of them
    # may name Fraction, through which an exact branch would come back
    tree = _poly_tree()
    methods = {
        (cls.name, node.name): node
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
    }
    checked = [methods[("Poly", "__divmod__")], methods[("Poly", "monic")], methods[("Series", "mul")]]
    checked.append(_function(tree, "series_div"))
    found = [
        f"{f.name}:{node.lineno}"
        for f in checked
        for node in ast.walk(f)
        if (isinstance(node, ast.Name) and node.id == "Fraction")
        or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
    ]
    assert found == []


def test_euclid_loops_run_on_residue_lists():
    # a Euclid step on Poly objects builds a Poly per quotient, remainder
    # and cofactor; the loops of the F_p gcds take residue lists only, and
    # every % in them reduces by the modulus p
    tree = _poly_tree()
    functions = [_function(tree, name) for name in ("_gcd_fp", "_ext_gcd_fp")]
    loops = [n for f in functions for n in ast.walk(f) if isinstance(n, ast.While)]
    assert loops
    for node in (n for loop in loops for n in ast.walk(loop)):
        if isinstance(node, ast.Call):
            func = node.func
            assert not (isinstance(func, ast.Name) and func.id in ("Poly", "divmod")), node.lineno
            assert not (isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "Poly"), node.lineno
        if isinstance(node, ast.BinOp):
            assert not isinstance(node.op, ast.FloorDiv), node.lineno
            if isinstance(node.op, ast.Mod):
                assert isinstance(node.right, ast.Name) and node.right.id == "p", node.lineno


def test_mulmod_packs_the_modulus_once():
    # f and the inverse of rev(f) are packed when the reducer is built; a
    # call packs only its operands
    outer = _function(_poly_tree(), "_mulmod")
    inner = _function(outer, "mulmod")
    inside = {id(n) for n in ast.walk(inner)}

    def packs(node) -> bool:
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "pack"

    def names(node) -> set:
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    once = [n for n in ast.walk(outer) if packs(n) and id(n) not in inside]
    per_call = [n for n in ast.walk(inner) if packs(n)]
    assert {"fc", "finv"} <= set().union(*map(names, once))
    assert per_call
    assert all(not names(n) & {"fc", "finv", "f"} for n in per_call)
    assert not any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_inverse" for n in ast.walk(inner))


# the relaxed engine with its Kronecker blocks and the Toom-Cook kernel, sized
# for horizons that no computation reads any more
DELETED_KERNELS = {
    "_online_square", "_kronecker_block", "DIRECT_LEAD", "_toom_block", "_toom4",
    "_toom_points", "_toom_pays", "TOOM_LEAF", "TOOM_BITS", "_folded",
}


def _called(node) -> set:
    """The names of every function or method called under `node`."""
    return {
        getattr(n.func, "id", None) or getattr(n.func, "attr", None)
        for n in ast.walk(node)
        if isinstance(n, ast.Call)
    }


def _packers(tree) -> set:
    """`kronecker`, what it returns, and every function of `tree` that calls
    one of them, directly or through another."""
    functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    packers = {"kronecker", "pack", "unpack"}
    while grown := {f.name for f in functions if _called(f) & packers} - packers:
        packers |= grown
    return packers


def test_series_engine_has_two_rings():
    # the ring picks the algorithm: the J-fraction over Z (rational
    # parameters run on their numerators) and the plain recurrence over
    # Z/p^alpha, one folded dot product per term, with no packed product: a
    # third path would be a third engine to keep equal to the oracle
    tree = next(tree for path, tree in _package_trees() if path.name == "riccati.py")
    engine = _function(tree, "riccati_series")
    local = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    (exact,) = [n for n in engine.body if isinstance(n, ast.If) and ast.unparse(n.test) == "ctx is None"]
    assert not exact.orelse and isinstance(exact.body[-1], ast.Return)
    assert _called(exact) & local == {"_numerators", "_jacobi_series"}
    modular = engine.body[engine.body.index(exact) + 1 :]
    called = set().union(*map(_called, modular))
    assert "mod_reduce" in called
    assert called & local == set()
    assert called & _packers(_poly_tree()) == set()
    assert "_product" in _packers(_poly_tree())
    for path, tree in _package_trees():
        names = {
            getattr(n, "id", None) or getattr(n, "name", None) or getattr(n, "attr", None)
            for n in ast.walk(tree)
        }
        assert names & DELETED_KERNELS == set(), path.name


def test_termwise_cutoff_is_read_by_mulmod_only():
    # the degree below which a modulus reduces term by term was measured for
    # `_mulmod` alone; SCHOOLBOOK_MAX was measured for products of unreduced
    # operands, a different decision, and must not stand in for it
    name = "TERMWISE_MODULUS_MAX"
    readers = []
    for path, tree in _package_trees():
        owner = _owners(tree)
        for node in ast.walk(tree):
            if (
                (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load))
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.alias) and node.name == name)
            ):
                readers.append((path.name, owner[id(node)]))
    assert readers == [("poly.py", "_mulmod")]
    tree = _poly_tree()
    (value,) = [
        n.value for n in tree.body
        if isinstance(n, ast.Assign) and [getattr(t, "id", None) for t in n.targets] == [name]
    ]
    assert isinstance(value, ast.Constant) and isinstance(value.value, int)
    assert "SCHOOLBOOK_MAX" not in {n.id for n in ast.walk(_function(tree, "_mulmod")) if isinstance(n, ast.Name)}


def test_periods_imports_no_private_name_from_reduce():
    # the certified form carries what `periods` reads (N, D^alpha and the
    # factors); a private helper of `reduce` imported there would derive it
    # a second time
    tree = next(tree for path, tree in _package_trees() if path.name == "periods.py")
    imports = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module == "reduce"]
    assert imports
    assert [a.name for n in imports for a in n.names if a.name.startswith("_")] == []


def test_cli_start_up_loads_no_dataclasses_inspect_or_difflib():
    # every CLI run pays for what `import freesub.cli` loads: dataclasses
    # (with the inspect, ast and dis it imports) generates code for each
    # record at import, and difflib only prints a golden mismatch; measured
    # against a bare interpreter, which may load some of them through site
    watched = {"dataclasses", "inspect", "difflib"}
    src = str(Path(freesub.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def loaded(code: str) -> set:
        probe = f"import sys; {code}; print(*set(sys.modules).intersection({sorted(watched)!r}))"
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        return set(out.stdout.split())

    assert loaded("import freesub.cli; freesub.cli.build_parser()") - loaded("pass") == set()


def test_only_riccati_walks_the_residual_factors():
    # the stable degree is the first index whose factors p divides
    # (`riccati.stable_index`); a second walk over them elsewhere would be a
    # second source of d
    names = {"residual_factors", "_residual_numerators", "_gammas"}
    walks = [
        f"{path.name}:{node.lineno}"
        for path, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in names
    ]
    assert walks and all(w.startswith("riccati.py:") for w in walks), walks


def test_groups_has_no_floor_division():
    # d and the classes come from the residual factors: a family formula
    # such as (p - 1) // 6 in `groups` would be a second source of them
    tree = next(tree for path, tree in _package_trees() if path.name == "groups.py")
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.FloorDiv)
    ]
    assert found == []
