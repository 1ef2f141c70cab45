"""The package layering is a checked fact.

``orchestration`` (specs, pool, cache, CLI) -> ``experiments`` (drivers)
-> ``protocols`` / ``service`` / ``topology`` / ``simulation``: nothing
imports upward, and inside the two surface packages every ``repro``
import sits at module top, where an import cycle would fail at once
instead of hiding in a function body.

One arithmetic fact is layered the same way: how a fixed-delay instant
becomes a float is ``simulation/clock.py``'s to state, so no other
kernel module adds or subtracts a ``delta``.  So is one ordering fact:
which messages of instant ``t`` a host failing at ``t`` still handles is
the calendar's to state, so the in-process tick lane neither moves a
clock nor applies a failure; only the sharded lane, on its own clock,
carries a failure plan.
"""

import ast
import pathlib

import repro

ROOT = pathlib.Path(repro.__file__).parent

#: ``(file, imported name) -> the cycle a function-level import breaks``.
NESTED_IMPORTS_KEPT = {
    ("orchestration/spec.py", "repro.__version__"):
        "repro/__init__.py imports orchestration before it binds "
        "__version__",
}


def _repro_imports(path):
    """``(imported dotted name, at module top?)`` for every import of a
    ``repro`` name in one source file."""
    tree = ast.parse(path.read_text())
    top_level = {id(node) for node in tree.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import in {path}"
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            if name.split(".")[0] == "repro":
                yield name, id(node) in top_level


def _imports_under(*packages):
    for package in packages:
        for path in sorted((ROOT / package).rglob("*.py")):
            for name, at_top in _repro_imports(path):
                yield path.relative_to(ROOT).as_posix(), name, at_top


def test_nothing_below_imports_orchestration():
    entry_points = {"__init__.py", "__main__.py"}
    offenders = [
        (file, name) for file, name, _ in _imports_under(".")
        if name.startswith("repro.orchestration")
        and not file.startswith("orchestration/")
        and file not in entry_points
    ]
    assert offenders == []


def test_the_kernel_packages_do_not_import_experiments():
    offenders = [
        (file, name) for file, name, _ in _imports_under(
            "simulation", "protocols", "topology", "service")
        if name.startswith("repro.experiments")
    ]
    assert offenders == []


def test_surface_packages_import_repro_at_module_top_only():
    nested = {
        (file, name) for file, name, at_top in _imports_under(
            "experiments", "orchestration")
        if not at_top
    }
    assert nested == set(NESTED_IMPORTS_KEPT)


def test_only_the_clock_module_adds_a_delta_to_an_instant():
    """A fixed-delay instant is ``k * delta`` (``clock.instant_after``);
    a running sum ``t + delta`` elsewhere would sit an ulp off it for a
    non-dyadic ``delta``.  Products are the rule itself and stay legal,
    as does ``vnow + sample(...)``: a variable delay names no ``delta``."""
    def names_delta(node):
        return (getattr(node, "id", None) == "delta"
                or getattr(node, "attr", None) == "delta")

    offenders = [
        (path.relative_to(ROOT).as_posix(), node.lineno)
        for package in ("simulation", "protocols", "service")
        for path in sorted((ROOT / package).rglob("*.py"))
        if path != ROOT / "simulation" / "clock.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, (ast.Add, ast.Sub))
        and (names_delta(node.left) or names_delta(node.right))
    ]
    assert offenders == []


def test_the_calendar_alone_drives_the_in_process_tick_lane():
    """``vector_lane.py`` sets no clock and applies no failure: the
    engine's calendar orders a lane's instants against FAIL events for a
    solo run as for a service session.  The own-clock driver and its
    failure plan live only in the sharded lane."""
    tree = ast.parse((ROOT / "simulation" / "vector_lane.py").read_text())
    moves_clock = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AugAssign))
        for target in getattr(node, "targets", [getattr(node, "target", None)])
        for part in ast.walk(target)
        if getattr(part, "attr", None) == "_now"
    ]
    fails = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None))
        in ("fail_host", "on_fail")
    ]
    assert (moves_clock, fails) == ([], [])
    defined = sorted(
        path.relative_to(ROOT).as_posix()
        for path in ROOT.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
        and node.name in ("failure_plan", "_apply_fails")
    )
    assert defined == ["simulation/sharded/coordinator.py",
                       "simulation/sharded/worker.py"]
