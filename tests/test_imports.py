"""Import hygiene: a process imports what it runs.

Every package ``__init__`` re-exports its names lazily through
:func:`repro._lazy.lazy_exports` (``docs/ARCHITECTURE.md``, "Import
layering").  The subprocess tests read ``sys.modules`` of a fresh
interpreter after one import, so a module that creeps back onto a path
that does not run it fails here; the static test keeps each package's
``TYPE_CHECKING`` block, export table and ``__all__`` in step.
"""

import ast
import dis
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.evaluation.attacks import ATTACKS, RUNNER_MODULES
from repro.evaluation.defenses.mechanisms import MECHANISM_MODULES

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = sorted(SRC.glob("repro/**/__init__.py"))

#: The imports of the perf benchmark's workloads module, verbatim.
BENCHMARK_IMPORTS = """
from repro.config import CoreConfig, MachineConfig
from repro.core.attacks.aes_key_recovery import AESKeyRecoveryAttack
from repro.core.attacks.port_contention import (
    PortContentionAttack,
    run_figure10,
)
from repro.crypto.aes import encrypt_block
from repro.evaluation import MatrixRunner
from repro.evaluation.matrix import DEFAULT_MASTER_SEED
from repro.harness import collect_sweep_reports
from repro.memo.store import TrialStore
"""


def run_fresh(source):
    """Run *source* in a fresh interpreter; its last stdout line is
    JSON, returned parsed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-c", source],
                          capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def modules_after(source):
    """``sys.modules`` of a fresh interpreter after running *source*."""
    return set(run_fresh(
        source + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"))


def repro_modules(modules):
    return {m for m in modules if m == "repro" or m.startswith("repro.")}


def test_bare_import_loads_only_the_package():
    modules = modules_after("import repro")
    assert repro_modules(modules) == {"repro", "repro._lazy"}
    assert "asyncio" not in modules
    assert not modules & set(MECHANISM_MODULES.values())


def test_cli_usage_loads_no_simulator_module():
    modules = modules_after(
        "import contextlib, io, runpy, sys\n"
        "sys.argv = ['repro']\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('repro', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 2, exc.code\n")
    assert repro_modules(modules) == {"repro", "repro._lazy"}


def test_benchmark_imports_load_no_other_attack():
    modules = modules_after(BENCHMARK_IMPORTS)
    attacks = {m for m in modules if m.startswith("repro.core.attacks.")}
    assert attacks == {"repro.core.attacks.aes_cache",
                       "repro.core.attacks.aes_key_recovery",
                       "repro.core.attacks.port_contention"}
    assert not {m for m in modules if m.startswith("repro.baselines")}
    assert not {m for m in modules if m.startswith("repro.service")}
    assert "asyncio" not in modules
    assert "repro.oracle.tracker" not in modules
    assert not modules & set(MECHANISM_MODULES.values())


def test_every_name_resolves_after_a_bare_import():
    result = run_fresh("""
import json
import repro
missing = [name for name in repro.__all__ if not hasattr(repro, name)]
namespace = {}
exec("from repro import *", namespace)
star = sorted(set(repro.__all__) - set(namespace))
subpackages = [repro.harness.run_resilient_sweep.__module__,
               repro.evaluation.defenses.MECHANISMS.__class__.__name__,
               repro.cpu.machine.Machine.__module__]
print(json.dumps({"missing": missing, "star": star,
                  "subpackages": subpackages,
                  "unknown": hasattr(repro, "no_such_name"),
                  "dir": sorted(set(repro.__all__) - set(dir(repro)))}))
""")
    assert result == {"missing": [], "star": [],
                      "subpackages": ["repro.harness.resilience", "dict",
                                      "repro.cpu.machine"],
                      "unknown": False, "dir": []}


def test_runner_modules_name_what_each_runner_imports():
    assert set(RUNNER_MODULES) == set(ATTACKS)
    for name, spec in ATTACKS.items():
        imported = {instruction.argval for instruction
                    in dis.get_instructions(spec.runner)
                    if instruction.opname == "IMPORT_NAME"}
        assert imported == {RUNNER_MODULES[name]}, name


def test_pool_matrix_imports_its_cells_before_forking():
    modules = modules_after(
        "from repro.evaluation import attack_names, defense_names\n"
        "from repro.evaluation.matrix import import_cell_modules\n"
        "import_cell_modules(attack_names(), defense_names())\n")
    assert set(RUNNER_MODULES.values()) <= modules
    assert set(MECHANISM_MODULES.values()) <= modules


def _exports(path):
    """``(TYPE_CHECKING imports, lazy_exports table, __all__, other
    top-level imports)`` of one package ``__init__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    checked, table, names, eager = {}, None, None, []
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for stmt in node.body:
                checked.setdefault(stmt.module, []).extend(
                    alias.name for alias in stmt.names)
        elif isinstance(node, ast.Assign):
            target = ast.unparse(node.targets[0])
            if target == "__all__":
                names = ast.literal_eval(node.value)
            elif target == "(__getattr__, __dir__)":
                assert ast.unparse(node.value.func) == "lazy_exports"
                table = ast.literal_eval(node.value.args[1])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            eager.append(ast.unparse(node))
    return checked, table, names, eager


@pytest.mark.parametrize("path", PACKAGES,
                         ids=lambda path: str(path.parent.relative_to(SRC)))
def test_package_reexports_lazily(path):
    checked, table, names, eager = _exports(path)
    assert set(eager) <= {"from typing import TYPE_CHECKING",
                          "from repro._lazy import lazy_exports"}
    if table is None:
        assert not checked and not names
        return
    assert {module: list(exported) for module, exported in table.items()} \
        == checked
    exported = {name for module in table.values() for name in module}
    assert set(names) - {"__version__"} == exported
