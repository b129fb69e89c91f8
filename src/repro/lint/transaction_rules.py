"""REP102 — transaction discipline for the persistence journal.

Two convention violations have already cost debugging time:

* a backend journal method that writes several rows *outside* one
  transaction can persist an object change without its invalidation
  side-effects (the exact torn state the WAL framing exists to
  prevent);
* a linker-side call to ``storage.record_*`` that bypasses
  ``NNexus._journal`` skips the read-only degradation path, so a disk
  failure crashes the request instead of degrading the service.

The rule therefore has two halves:

**Backend half** (``persistence`` modules): inside any method named
``record_*`` of a class, every database mutation
(``upsert``/``insert``/``update``/``delete`` on the engine,
``execute``/``executemany`` with INSERT/UPDATE/DELETE/REPLACE SQL on
sqlite) must be lexically inside a ``with`` block whose context is a
``transaction()`` call or the sqlite connection itself (``with
self._conn`` opens a transaction).  A helper
whose docstring states its transactional contract (the word
"transaction" appears in it) is exempt — the contract is then
machine-visible at the definition site and this rule checks its
*callers* instead.

**Caller half** (``core`` modules): direct calls to
``storage.record_add/record_bulk_add/record_update/record_remove/
record_rendering/record_invalidate_all/record_cache_clear`` must sit inside a lambda passed to
``*._journal(...)`` (the linker's degradation wrapper), or in a
function whose docstring declares the contract.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import Finding, Rule, SourceModule, dotted_name

__all__ = ["BackendTransactionRule", "JournalDisciplineRule"]

_ENGINE_MUTATIONS = (".upsert", ".insert", ".update", ".delete")
_SQLITE_EXEC = (".execute", ".executemany", ".executescript")
_SQL_MUTATING = ("insert", "update", "delete", "replace", "drop")
_JOURNAL_METHODS = (
    "record_add",
    "record_bulk_add",
    "record_update",
    "record_remove",
    "record_rendering",
    "record_invalidate_all",
    "record_cache_clear",
)


def _has_contract(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    doc = ast.get_docstring(func) or ""
    return "transaction" in doc.lower()


def _is_transaction_context(expr: ast.AST) -> bool:
    name = dotted_name(expr)
    if name is None:
        return False
    if isinstance(expr, ast.Call) and name.endswith(".transaction"):
        return True
    # ``with self._conn:`` — sqlite3 connections are transaction scopes.
    return name.endswith("._conn") or name.endswith(".connection")


def _first_arg_sql(call: ast.Call) -> str | None:
    if not call.args:
        return None
    arg = call.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.JoinedStr):
        parts = [
            piece.value
            for piece in arg.values
            if isinstance(piece, ast.Constant) and isinstance(piece.value, str)
        ]
        return "".join(parts)
    return None


def _is_mutation(call: ast.Call) -> bool:
    name = dotted_name(call.func)
    if name is None:
        return False
    if any(name.endswith(suffix) for suffix in _ENGINE_MUTATIONS):
        return True
    if any(name.endswith(suffix) for suffix in _SQLITE_EXEC):
        sql = _first_arg_sql(call)
        if sql is None:
            # Unresolvable SQL (a variable): treat as mutating — the
            # safe direction for a journal method.
            return True
        return sql.split(maxsplit=1)[0].lower() in _SQL_MUTATING if sql else False
    return False


def _journal_methods(
    tree: ast.Module,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Every ``record_*`` method of every class in the module."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for func in node.body:
            if isinstance(
                func, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and func.name.startswith("record_"):
                yield func


def _build_parents(tree: ast.Module) -> dict[int, ast.AST]:
    parents: dict[int, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


class BackendTransactionRule(Rule):
    code = "REP102"
    name = "transaction-discipline"
    description = "journal methods mutate only inside one transaction"
    roles = frozenset({"persistence"})

    def check(self, module: SourceModule) -> Iterator[Finding]:
        parents = _build_parents(module.tree)
        for func in _journal_methods(module.tree):
            if _has_contract(func):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call) or not _is_mutation(node):
                    continue
                if self._inside_transaction(node, func, parents):
                    continue
                yield module.finding(
                    self.code,
                    node,
                    f"database mutation {dotted_name(node.func)}() in "
                    f"journal method {func.name}() is outside a "
                    "transaction; wrap it in `with "
                    "...transaction():` (or `with self._conn:`) so "
                    "the record stays atomic on disk",
                )

    @staticmethod
    def _inside_transaction(
        node: ast.AST,
        func: ast.AST,
        parents: dict[int, ast.AST],
    ) -> bool:
        cursor: ast.AST | None = node
        while cursor is not None and cursor is not func:
            if isinstance(cursor, (ast.With, ast.AsyncWith)) and any(
                _is_transaction_context(item.context_expr) for item in cursor.items
            ):
                return True
            cursor = parents.get(id(cursor))
        return False


class JournalDisciplineRule(Rule):
    code = "REP102"
    name = "journal-discipline"
    description = "linker storage mutations go through _journal()"
    roles = frozenset({"core"})

    def check(self, module: SourceModule) -> Iterator[Finding]:
        parents = _build_parents(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            tail = name.rsplit(".", 1)[-1]
            if tail not in _JOURNAL_METHODS or ".storage." not in f".{name}":
                continue
            if self._sanctioned(node, parents):
                continue
            yield module.finding(
                self.code,
                node,
                f"direct call to {name}() bypasses the _journal() "
                "degradation wrapper; route it through "
                "self._journal(lambda: ...) or document the "
                "transactional contract in the enclosing docstring",
            )

    @staticmethod
    def _sanctioned(node: ast.AST, parents: dict[int, ast.AST]) -> bool:
        cursor: ast.AST | None = node
        while cursor is not None:
            parent = parents.get(id(cursor))
            if isinstance(cursor, ast.Lambda) and isinstance(parent, ast.Call):
                call_name = dotted_name(parent.func) or ""
                if call_name.endswith("_journal"):
                    return True
            if isinstance(
                cursor, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and _has_contract(cursor):
                return True
            cursor = parent
        return False
