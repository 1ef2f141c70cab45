"""The package layering is a checked fact.

``orchestration`` (figure runs, pool, cache, CLI) -> ``experiments`` (drivers)
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

The import set is a checked fact too, each in a fresh interpreter: a
package ``__init__`` imports nothing, so ``import repro`` loads one
module, the engine loads no surface package (nor ``multiprocessing``),
and no run path loads ``dataclasses`` or ``inspect``.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import repro

ROOT = pathlib.Path(repro.__file__).parent

#: Every package under ``repro``, dotted.
PACKAGES = sorted(
    ".".join(("repro",) + path.parent.relative_to(ROOT).parts)
    for path in ROOT.rglob("__init__.py"))

#: ``(file, imported name) -> the cycle a function-level import breaks``.
NESTED_IMPORTS_KEPT = {}


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


def test_no_module_imports_dataclasses():
    """Each ``@dataclass`` ``exec``-compiles its generated methods at
    import, and ``dataclasses`` pulls in ``inspect``, ``ast`` and
    ``dis``: records are plain slotted classes or ``NamedTuple``s."""
    offenders = [
        path.relative_to(ROOT).as_posix()
        for path in sorted(ROOT.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Import)
            and any(alias.name == "dataclasses" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    ]
    assert offenders == []


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


def _fresh(*args):
    """The stdout of ``python *args`` in a fresh interpreter that imports
    this ``repro``; a non-zero exit fails the test with its stderr."""
    path = os.pathsep.join(
        filter(None, [str(ROOT.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    return done.stdout


_LOADED = ("import sys; print(' '.join(sorted(name for name in sys.modules"
           " if name.split('.')[0] in ('repro', 'multiprocessing'))))")


def test_importing_repro_loads_no_other_repro_module():
    assert _fresh("-c", "import repro; " + _LOADED).split() == ["repro"]


def test_the_engine_loads_no_surface_package_and_no_multiprocessing():
    loaded = _fresh(
        "-c", "import repro.simulation.engine; " + _LOADED).split()
    assert "repro.simulation.engine" in loaded
    assert [name for name in loaded if name.startswith((
        "repro.experiments", "repro.orchestration", "repro.service",
        "repro.obs.provenance", "multiprocessing"))] == []


def test_the_run_paths_load_neither_dataclasses_nor_inspect():
    loaded = _fresh("-c", (
        "import sys, repro.experiments.validity_sweep, "
        "repro.experiments.query_mix, repro.service.service; "
        "print(*[name for name in ('dataclasses', 'inspect') "
        "if name in sys.modules])")).split()
    assert loaded == []


def test_every_package_table_entry_resolves_in_a_fresh_interpreter():
    """Each package's name -> module table is the one sanctioned late
    resolution of a ``repro`` name: nothing imports an exported name
    until it is first used, so a typo or an import cycle would hide
    until then.  Here each defining module of each table is loaded with
    no other ``repro`` module but the package ``__init__``s (they are
    dropped before each), and every name of it resolves."""
    code = f"""
import importlib, sys
resolved = 0
for package in {PACKAGES!r}:
    table = getattr(importlib.import_module(package), "_EXPORTS", {{}})
    for module in dict.fromkeys(table.values()):
        for name in [name for name in sys.modules
                     if name.split(".")[0] == "repro"]:
            del sys.modules[name]
        names = [name for name in table if table[name] == module]
        for name in names:
            getattr(importlib.import_module(package), name)
        resolved += len(names)
print(resolved)
"""
    exported = sum(
        len(getattr(importlib.import_module(package), "_EXPORTS", {}))
        for package in PACKAGES)
    assert exported > 0
    assert _fresh("-c", code) == f"{exported}\n"


def test_dir_lists_every_export_and_star_imports_work():
    code = f"""
import importlib
for package in {PACKAGES!r}:
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module)), package
    exec(f"from {{package}} import *", {{}})
print("ok")
"""
    assert _fresh("-c", code) == "ok\n"


def test_the_cli_entry_point_starts():
    assert _fresh("-m", "repro", "--help").startswith("usage: repro")
