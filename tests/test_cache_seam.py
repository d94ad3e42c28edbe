"""The result caches keep their state to themselves.

``ResultCache.lookup`` is the one probe the sweep engine makes, so no
code under ``src/`` outside ``ResultCache`` and ``NullCache`` reads a
cache's memory tier, disk index or counters.  A route that reaches in
again (a second fast path, a counter bumped from outside) fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Private state of the cache classes.
_PRIVATE = frozenset(
    {
        "_memory",
        "_hits",
        "_misses",
        "_lru_active",
        "_disk_index",
        "_blocks",
        "_loaded_shards",
    }
)

#: The classes that own that state.
_OWNERS = frozenset({"ResultCache", "NullCache"})


def _outside_reads() -> list[str]:
    found = []

    def visit(node: ast.AST, path: Path, owner: bool) -> None:
        if isinstance(node, ast.ClassDef):
            owner = node.name in _OWNERS
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in _PRIVATE
            and not owner
        ):
            found.append(f"{path.relative_to(SRC)}:{node.lineno} .{node.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, owner)

    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        visit(tree, path, False)
    return found


def test_no_code_outside_the_caches_reads_their_state():
    assert _outside_reads() == []
