"""Source-level checks on `src/nks3`."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "nks3"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_certificates_fail_only_through_gate(path):
    # a certificate fails only as `frame.gate(..., error=CertificateError)`,
    # whose comparison fails closed on NaN; a hand-written raise could not
    calls = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Name, ast.Attribute))
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        == "CertificateError"
    ]
    assert calls == [], f"{path.name} calls CertificateError(...) on lines {calls}"


def _parse(name):
    path = SRC / name
    return ast.parse(path.read_text(), filename=str(path))


def _inside(tree, *names):
    """ids of every node in the class or function reached by `names`."""
    node = tree
    for name in names:
        node = next(n for n in node.body if getattr(n, "name", None) == name)
    return {id(n) for n in ast.walk(node)}


def _calls(tree):
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call)]


def _callee(call):
    f = call.func
    return getattr(f, "attr", getattr(f, "id", None))


def _scoped_calls(tree):
    """(scope, call) of every call in `tree`; the scope is the dotted name
    of the innermost enclosing class or function, "" at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Call):
                found.append((scope, child))
            visit(child, scope)

    visit(tree, "")
    return found


# callee -> the only places in src/nks3 that call it; "replace" is
# `dataclasses.replace`, called by its bare name (a `str.replace` is not)
_CONSTRUCTION_SITES = {
    "lattice": {"surface.py:Lattice.inset", "io.py:_read_rows", "fixtures.py:make_fixture"},
    "ImmersionGrid": {"surface.py:immersion_grid"},
    "HSurfaceGrid": {"hsystem.py:h_surface_grid"},
    "replace": {"surface.py:halo_slabs"},
}


def _call_sites(callees):
    """callee -> every "<file>:<scope>" in src/nks3 that calls it; a
    method call named "replace" is a string's and is skipped."""
    sites = {callee: set() for callee in callees}
    for path in sorted(SRC.glob("*.py")):
        for scope, call in _scoped_calls(_parse(path.name)):
            callee = _callee(call)
            if callee == "replace" and isinstance(call.func, ast.Attribute):
                continue
            if callee in sites:
                sites[callee].add(f"{path.name}:{scope}")
    return sites


def test_windows_and_grids_are_built_only_at_their_sites():
    # a window is validated once, where it is first known, and every grid is
    # built over a `Lattice` its caller already holds; the sub-grids of
    # either grid type are copies of a built grid over views of its row
    # arrays, made only by `surface.halo_slabs`
    assert _call_sites(_CONSTRUCTION_SITES) == _CONSTRUCTION_SITES


# residual -> the one place that reduces it: the per-slab body of every
# summary of its grid (`analyze` builds its own in its one pass)
_REDUCTION_SITES = {
    "almost_complex_residual": {"surface.py:_summary_slab"},
    "h_equation_residual": {"hsystem.py:_summary_slab"},
}


def test_gated_defects_are_reduced_only_in_their_grid_property():
    # every gate, certificate and self-check reads the cached maximum, so no
    # command reduces a defect field twice
    assert _call_sites(_REDUCTION_SITES) == _REDUCTION_SITES


def test_stencil_is_written_only_in_lattice_diff():
    # every first derivative goes through `Lattice.diff`, which picks the
    # step of its axis, so no caller can pair an axis with the wrong step
    trees = {path.name: _parse(path.name) for path in sorted(SRC.glob("*.py"))}
    inside = _inside(trees["surface.py"], "Lattice", "diff")
    gradients, stray = [], []
    for name, tree in trees.items():
        for call in _calls(tree):
            gradient = _callee(call) == "gradient"
            if gradient:
                gradients.append(name)
            if (gradient or any(k.arg == "edge_order" for k in call.keywords)) \
                    and id(call) not in inside:
                stray.append(f"{name}:{call.lineno}")
    assert gradients == ["surface.py"]
    assert stray == [], f"stencil written outside Lattice.diff at {stray}"


def test_potential_is_derived_only_in_its_grid_class():
    # every stage reads a potential's derivatives through `HSurfaceGrid`:
    # `partials` and `laplacian` of a halo sub-grid, or `pairs` of a block;
    # how often each point is differentiated is counted in test_hsystem
    tree = _parse("hsystem.py")
    inside = _inside(tree, "HSurfaceGrid")
    calls = [n for n in _calls(tree) if _callee(n) in ("diff", "diff2")]
    assert calls
    stray = [n.lineno for n in calls if id(n) not in inside]
    assert stray == [], f"hsystem.py derives a potential outside HSurfaceGrid on lines {stray}"


def test_slab_size_is_read_only_from_its_constant():
    # the slab size is no knob: `surface._POINTS` is bound once, at module
    # level, to an integer literal and read only inside `Lattice.slabs`,
    # which takes nothing but the axis and passes the size to no call; so no
    # function parameter, CLI flag or environment variable can reach it
    trees = {path.name: _parse(path.name) for path in sorted(SRC.glob("*.py"))}
    surface = trees["surface.py"]
    binds = [
        n for n in surface.body
        if isinstance(n, ast.Assign)
        and [getattr(t, "id", None) for t in n.targets] == ["_POINTS"]
    ]
    assert len(binds) == 1
    assert isinstance(binds[0].value, ast.Constant) and type(binds[0].value.value) is int
    inside = _inside(surface, "Lattice", "slabs")
    stray = [
        f"{name}:{n.lineno}"
        for name, tree in trees.items() for n in ast.walk(tree)
        if (getattr(n, "id", None) or getattr(n, "attr", None)) == "_POINTS"
        and n is not binds[0].targets[0]
        and not (isinstance(n.ctx, ast.Load) and id(n) in inside)
    ]
    assert stray == [], f"_POINTS bound or read outside Lattice.slabs at {stray}"
    slabs = next(n for n in ast.walk(surface)
                 if isinstance(n, ast.FunctionDef) and n.name == "slabs")
    a = slabs.args
    assert [x.arg for x in a.posonlyargs + a.args] == ["self", "axis"]
    assert not (a.defaults or a.kwonlyargs or a.vararg or a.kwarg)
    passed = [
        x for call in _calls(slabs)
        for arg in [*call.args, *(k.value for k in call.keywords)]
        for x in ast.walk(arg) if getattr(x, "id", None) == "_POINTS"
    ]
    assert passed == []
    # every caller names the axis as a literal 0 or 1 and nothing else
    callers = [c for tree in trees.values() for c in _calls(tree) if _callee(c) == "slabs"]
    assert callers
    for call in callers:
        assert not call.keywords and len(call.args) == 1
        assert isinstance(call.args[0], ast.Constant) and call.args[0].value in (0, 1)


def test_chunk_size_is_read_only_from_its_constant():
    # the writer's chunk is no knob: `io._CHUNK_VALUES` is bound once, at
    # module level, to an integer literal and read only inside `_write_rows`,
    # whose parameters are the four it writes from and nothing else
    trees = {path.name: _parse(path.name) for path in sorted(SRC.glob("*.py"))}
    io = trees["io.py"]
    binds = [
        n for n in io.body
        if isinstance(n, ast.Assign)
        and [getattr(t, "id", None) for t in n.targets] == ["_CHUNK_VALUES"]
    ]
    assert len(binds) == 1
    assert isinstance(binds[0].value, ast.Constant) and type(binds[0].value.value) is int
    inside = _inside(io, "_write_rows")
    stray = [
        f"{name}:{n.lineno}"
        for name, tree in trees.items() for n in ast.walk(tree)
        if (getattr(n, "id", None) or getattr(n, "attr", None)) == "_CHUNK_VALUES"
        and n is not binds[0].targets[0]
        and not (isinstance(n.ctx, ast.Load) and id(n) in inside)
    ]
    assert stray == [], f"_CHUNK_VALUES bound or read outside _write_rows at {stray}"
    write_rows = next(n for n in io.body
                      if isinstance(n, ast.FunctionDef) and n.name == "_write_rows")
    a = write_rows.args
    assert [x.arg for x in a.posonlyargs + a.args] == ["path", "header", "lat", "blocks"]
    assert not (a.defaults or a.kwonlyargs or a.vararg or a.kwarg)


def test_no_pass_can_silence_a_floating_point_fault():
    # `cli.main` raises every zero division, overflow and invalid value of a
    # command; any other errstate may only raise as well, and nothing sets
    # numpy's error state for good
    modes, stray = {}, []
    for path in sorted(SRC.glob("*.py")):
        for call in _calls(_parse(path.name)):
            if _callee(call) == "errstate":
                assert not call.args, f"{path.name}:{call.lineno}"
                modes.setdefault(path.name, []).extend(
                    (k.arg, getattr(k.value, "value", None)) for k in call.keywords)
            elif _callee(call) in ("seterr", "seterrcall"):
                stray.append(f"{path.name}:{call.lineno}")
    assert stray == [], f"numpy's error state set at {stray}"
    assert {mode for found in modes.values() for _, mode in found} == {"raise"}
    assert sorted(modes["cli.py"]) == [("divide", "raise"), ("invalid", "raise"),
                                       ("over", "raise")]


def _imported_modules(tree):
    """(scope, module) of every import in `tree`, the module as written
    ("nkspace" for `from .nkspace import verify` or `from . import
    nkspace`); the scope is as in `_scoped_calls`."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Import):
                found.extend((scope, a.name) for a in child.names)
            elif isinstance(child, ast.ImportFrom):
                found.append((scope, child.module))
                found.extend((scope, a.name) for a in child.names if not child.module)
            visit(child, scope)

    visit(tree, "")
    return found


@pytest.mark.parametrize("name", ["quat.py", "frame.py", "surface.py", "hsystem.py",
                                  "fixtures.py", "io.py"])
def test_grid_modules_never_import_the_identity_suite(name):
    # the grid stack reads the frame tables and kernels from `frame`, so no
    # grid command compiles the ambient identity suite in `nkspace`
    imported = [m for _, m in _imported_modules(_parse(name))]
    assert not [m for m in imported if m and m.split(".")[-1] == "nkspace"]


def test_cli_imports_the_identity_suite_only_to_verify():
    found = [(s, m) for s, m in _imported_modules(_parse("cli.py"))
             if m and m.split(".")[-1] == "nkspace"]
    assert found == [("cmd_verify", "nkspace")]


def _mentions(tree, name):
    """Whether `tree` imports, binds, reads or spells out `name`."""
    return any(
        getattr(n, "id", None) == name
        or (isinstance(n, ast.Attribute) and n.attr == name)
        or (isinstance(n, ast.alias) and n.name == name)
        or (isinstance(n, ast.Constant) and n.value == name)
        for n in ast.walk(tree)
    )


def test_flip_is_read_only_by_the_frame_and_the_ambient_suite():
    # grid code keeps the raw imaginary parts of p^-1 dp and q^-1 dq; the
    # sign flip to the paper's frame (its third field the translate of -k)
    # lives in `frame`, and only `nkspace` converts with it
    users = {p.name for p in SRC.glob("*.py") if _mentions(_parse(p.name), "FLIP")}
    assert users == {"frame.py", "nkspace.py"}


def test_tol_scale_is_validated_only_where_it_enters():
    # `frame.tolerance` validates it for every grid gate; the flag parser
    # and `verify`, which read no grid, check it before any input is read
    sites = {"validate_tol_scale": {"cli.py:_parse", "frame.py:tolerance",
                                    "nkspace.py:verify"}}
    assert _call_sites(sites) == sites


def test_the_too_fine_refusal_is_worded_only_in_the_law():
    # every gate that reads a tolerance refuses a grid too fine to certify
    # through `frame.tolerance`, so no other module words the refusal
    users = {p.name for p in SRC.glob("*.py") if "too fine to certify" in p.read_text()}
    assert users == {"frame.py"}


@pytest.mark.parametrize("name", ["surface.py", "hsystem.py"])
def test_grid_gates_read_the_law_alone(name):
    # the roundoff term, the cap and the multiplier's check are the law's
    # inside: a gate reads `frame.tolerance` and nothing beneath it
    tree = _parse(name)
    assert [n for n in ("roundoff", "TOL_CAP", "validate_tol_scale")
            if _mentions(tree, n)] == []


def test_both_readers_of_a_surface_grid_run_one_refusal_sequence():
    # `analyze` and `to-h` check a surface grid's summary through the one
    # `surface.require_surface`, so neither can skip a check the other runs;
    # the metric floor there is the only reader of the smallest EG - F^2
    sites = {"require_surface": {"surface.py:analyze", "hsystem.py:epsilon_from_surface"}}
    assert _call_sites(sites) == sites
    trees = {path.name: _parse(path.name) for path in sorted(SRC.glob("*.py"))}
    inside = _inside(trees["surface.py"], "require_surface")
    reads = [(name, n) for name, tree in trees.items() for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and n.attr == "det_min"]
    assert reads
    stray = [f"{name}:{n.lineno}" for name, n in reads if id(n) not in inside]
    assert stray == [], f"det_min read outside surface.require_surface at {stray}"
