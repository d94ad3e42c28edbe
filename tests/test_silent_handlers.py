"""No new silent error handlers under ``src/``.

An ``except ...: pass`` handler swallows an error without a trace.
Each one left in ``src/`` must either be impossible by construction or
become a counted event; this test keeps their number from growing.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: ``except ...: pass`` handlers under ``src/`` today.  Lower it when
#: one is removed; never raise it.
MAX_SILENT_HANDLERS = 21


def _silent_handlers() -> list[str]:
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ExceptHandler)
                and len(node.body) == 1
                and isinstance(node.body[0], ast.Pass)
            ):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    return found


def test_silent_handlers_do_not_grow():
    found = _silent_handlers()
    assert len(found) <= MAX_SILENT_HANDLERS, "\n".join(found)
