"""Export / check the public API surface.

The surface is everything promoted into ``repro.__all__`` (plus
``repro.config.__all__``, ``repro.harness.__all__``,
``repro.evaluation.__all__``, ``repro.memo.__all__``,
``repro.service.__all__`` and ``repro.oracle.__all__``, the secondary
entry points the docs commit to), with enough shape
information to catch accidental breaks: the kind of each export and,
for callables, the full signature string.

Usage::

    python -m repro.tools.api_surface                # print to stdout
    python -m repro.tools.api_surface --update       # rewrite snapshot
    python -m repro.tools.api_surface --check        # diff vs snapshot

``--check`` exits non-zero on drift and prints a per-name diff; CI
runs it so any surface change must land together with a reviewed
snapshot update (``--update``) in the same commit.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path
from typing import Any, Dict

#: The snapshot CI diffs against.
SNAPSHOT_PATH = (Path(__file__).resolve().parents[3]
                 / "tests" / "api" / "api_surface.json")

#: Modules whose ``__all__`` constitutes the public surface.
PUBLIC_MODULES = ("repro", "repro.config", "repro.harness",
                  "repro.evaluation", "repro.memo", "repro.service",
                  "repro.oracle")


def _describe(obj: Any) -> Dict[str, str]:
    if inspect.isclass(obj):
        entry = {"kind": "class"}
        try:
            entry["signature"] = str(inspect.signature(obj))
        except (ValueError, TypeError):
            pass
        return entry
    if callable(obj):
        try:
            return {"kind": "function",
                    "signature": str(inspect.signature(obj))}
        except (ValueError, TypeError):
            return {"kind": "function"}
    return {"kind": type(obj).__name__}


def export_surface() -> Dict[str, Dict[str, Dict[str, str]]]:
    """The current surface: ``{module: {name: {kind, signature}}}``."""
    import importlib
    surface: Dict[str, Dict[str, Dict[str, str]]] = {}
    for module_name in PUBLIC_MODULES:
        module = importlib.import_module(module_name)
        names = {}
        for name in sorted(module.__all__):
            if name == "__version__":
                # The version string changes every release; pinning it
                # in the snapshot would make every bump look like drift.
                names[name] = {"kind": "str"}
                continue
            names[name] = _describe(getattr(module, name))
        surface[module_name] = names
    return surface


def diff_surface(expected: Dict, actual: Dict) -> list:
    """Human-readable drift lines ([] when surfaces match)."""
    lines = []
    for module in sorted(set(expected) | set(actual)):
        exp, act = expected.get(module), actual.get(module)
        if exp is None:
            lines.append(f"+ module {module} (not in snapshot)")
            continue
        if act is None:
            lines.append(f"- module {module} (removed)")
            continue
        for name in sorted(set(exp) | set(act)):
            if name not in act:
                lines.append(f"- {module}.{name} (removed)")
            elif name not in exp:
                lines.append(f"+ {module}.{name} (added)")
            elif exp[name] != act[name]:
                lines.append(f"! {module}.{name}: "
                             f"{exp[name]} -> {act[name]}")
    return lines


def main(argv=None) -> int:
    """CLI entry point: print, ``--update`` or ``--check`` the surface."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="diff against the snapshot; exit 1 on drift")
    mode.add_argument("--update", action="store_true",
                      help="rewrite the snapshot from the live surface")
    parser.add_argument("--snapshot", type=Path, default=SNAPSHOT_PATH,
                        help="snapshot path (default: tests/api/"
                             "api_surface.json)")
    args = parser.parse_args(argv)

    actual = export_surface()
    payload = json.dumps(actual, indent=2, sort_keys=True) + "\n"

    if args.update:
        args.snapshot.parent.mkdir(parents=True, exist_ok=True)
        args.snapshot.write_text(payload)
        print(f"wrote {args.snapshot}")
        return 0
    if args.check:
        if not args.snapshot.exists():
            print(f"no snapshot at {args.snapshot}; run --update",
                  file=sys.stderr)
            return 1
        expected = json.loads(args.snapshot.read_text())
        drift = diff_surface(expected, actual)
        if drift:
            print("public API surface drifted from snapshot "
                  "(run `python -m repro.tools.api_surface --update` "
                  "and commit the diff):", file=sys.stderr)
            for line in drift:
                print(f"  {line}", file=sys.stderr)
            return 1
        print("public API surface matches snapshot")
        return 0
    print(payload, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
