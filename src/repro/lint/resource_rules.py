"""REP103 — resource hygiene: close on every raised path, bound IN-lists.

Both halves encode a bug this repo actually shipped:

* PR 7's sqlite backend leaked its connection when ``quick_check``
  failed during ``__init__`` — the handle was created, a later
  statement raised, and nothing closed it.  The **close-on-raise**
  half flags a name bound to a resource constructor (``open``,
  ``sqlite3.connect``, ``socket.socket``, ``SqliteBackend``,
  ``Database``, ``JsonlExporter``, …) followed by statements that can
  raise *before* ownership escapes (assignment to ``self``, a
  ``return``, or handing ``.close`` to another owner), unless those
  statements sit in a ``try`` that closes the resource in a handler or
  ``finally``.
* PR 7 also hit sqlite's 999-host-parameter limit by interpolating an
  unbounded ``IN (...)`` placeholder list.  The **bounded-IN** half
  flags ``execute``/``executemany`` calls whose SQL is built with an
  f-string/``%``/``.format`` containing ``IN (`` unless the call sits
  inside the chunking idiom (``for ... in range(0, len(...), N)``).

The close-on-raise analysis is a lexical approximation, tuned to
prefer false negatives over false positives: statements that cannot
realistically raise (``pass``, constant assigns, ``threading.Lock()``
constructions, nested ``def``/``class``) do not demand protection.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from repro.lint.engine import Finding, Rule, SourceModule, dotted_name

__all__ = ["CloseOnRaiseRule", "BoundedInListRule"]

#: Callables whose return value owns an OS resource and exposes .close().
_RESOURCE_CTORS = frozenset(
    {
        "open",
        "os.open",
        "sqlite3.connect",
        "socket.socket",
        "socket.create_connection",
        "SqliteBackend",
        "Database",
        "JsonlExporter",
    }
)

_SAFE_CTOR_TAILS = frozenset({"Lock", "RLock", "Condition", "Event", "Path"})

#: One statement that will run later, with the enclosing try statements
#: (innermost last) whose handlers would see an exception raised by it.
_Entry = tuple[ast.stmt, tuple[ast.Try, ...]]


def _is_resource_ctor(call: ast.Call) -> bool:
    name = dotted_name(call.func)
    if name is None:
        return False
    return name in _RESOURCE_CTORS or name.rsplit(".", 1)[-1] in _RESOURCE_CTORS


def _name_used(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id == name for sub in ast.walk(node)
    )


def _is_safe_statement(stmt: ast.stmt) -> bool:
    if isinstance(
        stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Pass)
    ):
        return True
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        value = stmt.value
        if value is None:
            return True
        if isinstance(value, (ast.Constant, ast.Name, ast.Lambda, ast.Attribute)):
            return True
        if isinstance(value, (ast.List, ast.Tuple, ast.Dict, ast.Set)):
            return True
        if isinstance(value, ast.Call):
            ctor = dotted_name(value.func) or ""
            if ctor.rsplit(".", 1)[-1] in _SAFE_CTOR_TAILS:
                return True
    return False


def _escapes(stmt: ast.stmt, name: str) -> bool:
    """True when ownership of ``name`` leaves this function here."""
    if isinstance(stmt, ast.Return):
        # ``return fh`` / ``return wrap(fh)`` hand the object (and the
        # close duty) to the caller.  ``return parse(fh.read())`` does
        # not — the name only appears as an attribute base, so the
        # object itself never leaves and the return leaks it.
        if stmt.value is None:
            return False
        bare = 0
        based = 0
        for sub in ast.walk(stmt.value):
            if isinstance(sub, ast.Name) and sub.id == name:
                bare += 1
            elif (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == name
            ):
                based += 1
        return bare > based
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        value = stmt.value
        # ``self.attr = name`` — the instance now owns it; and
        # ``other.close = name.close`` — close duty was delegated.
        if value is not None and _name_used(value, name):
            return any(
                isinstance(t, (ast.Attribute, ast.Subscript)) for t in targets
            )
    return False


def _block_closes(body: Sequence[ast.stmt], name: str) -> bool:
    """Does any statement in this block call ``name.close()`` (or pass
    ``name`` to a function whose name contains "close")?"""
    for stmt in body:
        for sub in ast.walk(stmt):
            if not isinstance(sub, ast.Call):
                continue
            called = dotted_name(sub.func)
            if called == f"{name}.close":
                return True
            if (
                called is not None
                and "close" in called.rsplit(".", 1)[-1].lower()
                and any(_name_used(arg, name) for arg in sub.args)
            ):
                return True
    return False


def _try_handlers_close(node: ast.Try, name: str) -> bool:
    return any(_block_closes(handler.body, name) for handler in node.handlers)


class CloseOnRaiseRule(Rule):
    code = "REP103"
    name = "resource-hygiene"
    description = "resources must be closed on every raised path"
    roles = frozenset({"server", "core", "persistence", "obs", "storage"})

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for func in (
            n
            for n in ast.walk(module.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ):
            yield from self._check_block(module, func.body, [], ())

    def _check_block(
        self,
        module: SourceModule,
        body: Sequence[ast.stmt],
        tail: list[_Entry],
        guards: tuple[ast.Try, ...],
    ) -> Iterator[Finding]:
        for index, stmt in enumerate(body):
            following: list[_Entry] = [
                (later, guards) for later in body[index + 1 :]
            ] + tail
            if isinstance(stmt, ast.Try):
                inner_tail = [(s, guards) for s in stmt.orelse] + following
                yield from self._check_block(
                    module, stmt.body, inner_tail, guards + (stmt,)
                )
                for handler in stmt.handlers:
                    yield from self._check_block(
                        module, handler.body, following, guards
                    )
                yield from self._check_block(module, stmt.orelse, following, guards)
                yield from self._check_block(
                    module, stmt.finalbody, following, guards
                )
            elif not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                # Nested defs are separate scopes; check() visits them
                # as functions in their own right.
                for inner in _inner_blocks(stmt):
                    yield from self._check_block(module, inner, following, guards)
            name, ctor = _resource_binding(stmt)
            if name is None or ctor is None:
                continue
            hazard = _first_unprotected_hazard(following, name)
            if hazard is not None:
                yield module.finding(
                    self.code,
                    ctor,
                    f"{dotted_name(ctor.func)}() result `{name}` leaks when "
                    f"the statement at line {getattr(hazard, 'lineno', '?')} "
                    f"raises; protect it with try/except (or finally) "
                    f"calling {name}.close() before ownership moves",
                )


def _first_unprotected_hazard(entries: list[_Entry], name: str) -> ast.stmt | None:
    for stmt, stmt_guards in entries:
        if _escapes(stmt, name):
            return None
        if isinstance(stmt, ast.Try):
            body_closes = _block_closes(stmt.body, name) or _block_closes(
                stmt.orelse, name
            )
            finally_closes = _block_closes(stmt.finalbody, name)
            handlers_close = _try_handlers_close(stmt, name)
            if finally_closes:
                return None  # the finally always runs: duty discharged
            if body_closes:
                # Closed on the success path; handler coverage decides
                # whether the failure path is too, but either way this
                # try is where the duty ends for our lexical scan.
                return None
            if handlers_close:
                continue  # failure inside this try closes it; keep going
            return stmt  # a risky try with no closing path at all
        if _block_closes([stmt], name):
            return None  # plain close (or delegated close) before risk
        if any(_try_handlers_close(guard, name) for guard in stmt_guards):
            # An exception here lands in an enclosing handler that
            # closes the resource.
            continue
        if _is_safe_statement(stmt):
            continue
        return stmt
    return None


def _resource_binding(stmt: ast.stmt) -> tuple[str | None, ast.Call | None]:
    """``name = <resource ctor>(...)`` bindings (plain Name target only)."""
    target: ast.AST | None = None
    value: ast.AST | None = None
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target, value = stmt.targets[0], stmt.value
    elif isinstance(stmt, ast.AnnAssign):
        target, value = stmt.target, stmt.value
    if (
        isinstance(target, ast.Name)
        and isinstance(value, ast.Call)
        and _is_resource_ctor(value)
    ):
        return target.id, value
    return None, None


def _inner_blocks(stmt: ast.stmt) -> list[list[ast.stmt]]:
    blocks: list[list[ast.stmt]] = []
    for attr in ("body", "orelse", "finalbody"):
        inner = getattr(stmt, attr, None)
        if isinstance(inner, list) and inner and isinstance(inner[0], ast.stmt):
            blocks.append(inner)
    for handler in getattr(stmt, "handlers", []) or []:
        blocks.append(handler.body)
    return blocks


class BoundedInListRule(Rule):
    code = "REP103"
    name = "bounded-in-list"
    description = "interpolated SQL IN (...) lists must be chunked"
    roles = frozenset({"server", "core", "persistence", "obs", "storage"})

    def check(self, module: SourceModule) -> Iterator[Finding]:
        parents: dict[int, ast.AST] = {}
        for node in ast.walk(module.tree):
            for child in ast.iter_child_nodes(node):
                parents[id(child)] = node
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            called = dotted_name(node.func) or ""
            if not called.endswith((".execute", ".executemany")):
                continue
            if not node.args or not _interpolated_in_list(node.args[0]):
                continue
            if _inside_chunk_loop(node, parents):
                continue
            yield module.finding(
                self.code,
                node,
                "SQL IN (...) placeholder list is interpolated without "
                "chunking; sqlite's host-parameter limit is 999 on older "
                "builds — slice the ids with `for start in range(0, "
                "len(ids), N)` first",
            )


def _interpolated_in_list(arg: ast.AST) -> bool:
    """F-string / % / + / .format SQL whose literal part has ``IN (``."""
    literal = ""
    dynamic = False
    if isinstance(arg, ast.JoinedStr):
        dynamic = any(isinstance(v, ast.FormattedValue) for v in arg.values)
        literal = "".join(
            v.value
            for v in arg.values
            if isinstance(v, ast.Constant) and isinstance(v.value, str)
        )
    elif isinstance(arg, ast.BinOp) and isinstance(arg.op, (ast.Mod, ast.Add)):
        dynamic = True
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                literal += sub.value
    elif (
        isinstance(arg, ast.Call)
        and isinstance(arg.func, ast.Attribute)
        and arg.func.attr == "format"
        and isinstance(arg.func.value, ast.Constant)
        and isinstance(arg.func.value.value, str)
    ):
        dynamic = True
        literal = arg.func.value.value
    return dynamic and "in (" in literal.lower()


def _inside_chunk_loop(node: ast.AST, parents: dict[int, ast.AST]) -> bool:
    cursor: ast.AST | None = node
    while cursor is not None:
        if isinstance(cursor, ast.For) and _is_chunk_loop(cursor):
            return True
        cursor = parents.get(id(cursor))
    return False


def _is_chunk_loop(loop: ast.For) -> bool:
    it = loop.iter
    if not (isinstance(it, ast.Call) and dotted_name(it.func) == "range"):
        return False
    # range(0, len(x), step) — the canonical chunking shape.
    return len(it.args) == 3
