"""REP104 — observability discipline.

Four invariants, each one a lesson from the tracing/metrics PRs:

* **No ``print()``** in library code (``server``/``core``/
  ``persistence``/``obs`` modules).  Operational output goes through
  a ``logging.getLogger("nnexus.<component>")`` logger so it carries trace ids
  (:class:`repro.obs.logging.TraceFilter`) and honours ``--log-json``;
  CLI entry points carry no role tag and are out of scope.
* **Wire handlers open a span.**  ``dispatch_message`` and the
  gateway's ``do_GET``/``do_POST`` are the only doors into the server;
  a request that enters without a span is invisible to the slow-request
  forensics added in PR 6.
* **Null-object pattern, not None-checks**, on the hot path.  The repo
  standardized on ``tracer if tracer is not None else NULL_TRACER``
  at construction plus ``if trc.enabled:`` at use sites (one attribute
  load per call).  A statement-level ``if self.tracer is not None:``
  chain re-introduces per-call branching on identity and tends to
  multiply — the rule flags ``ast.If`` tests comparing tracer/metrics
  names against ``None`` while leaving the constructor-site ternary
  (``ast.IfExp``) alone.
* **Durations come from a monotonic clock.**  ``time.time()`` is wall
  time: NTP steps it backwards and forwards, so a latency histogram
  fed from a wall-clock delta can record negative or wildly wrong
  observations.  The rule flags subtractions with a ``time.time()``
  (or bare imported ``time()``) call as an operand; timestamps that
  are *recorded* rather than differenced (e.g. a span's wall-clock
  ``start_ts``) are fine and not flagged.  Use ``time.monotonic()``
  or ``time.perf_counter()`` for anything subtracted.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import Finding, Rule, SourceModule, dotted_name

__all__ = [
    "PrintBanRule",
    "HandlerSpanRule",
    "NullPatternRule",
    "MonotonicClockRule",
]

#: Functions that are wire-facing request handlers.
_HANDLER_NAMES = frozenset({"dispatch_message", "do_GET", "do_POST"})

#: Call tails that count as "opened a span" for a handler.
_SPAN_TAILS = frozenset({"start_trace", "start_span", "_request_span"})

#: Final dotted segments that name an observability sink.  Exact
#: matches only — "record" must not match "recorder".
_OBS_SEGMENTS = frozenset({"tracer", "trc", "metrics", "recorder"})
_OBS_SUFFIXES = ("_tracer", "_metrics", "_recorder")


class PrintBanRule(Rule):
    code = "REP104"
    name = "print-ban"
    description = 'library code logs via logging.getLogger("nnexus.<component>"), not print()'
    roles = frozenset({"server", "core", "persistence", "obs"})

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield module.finding(
                    self.code,
                    node,
                    "print() in library code bypasses structured logging; "
                    'use logging.getLogger("nnexus.<component>") so the line '
                    "carries a trace id and honours --log-json",
                )


class HandlerSpanRule(Rule):
    code = "REP104"
    name = "handler-span"
    description = "wire-method handlers must open a tracing span"
    roles = frozenset({"server"})

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in _HANDLER_NAMES:
                continue
            if any(self._opens_span(sub) for sub in ast.walk(node)):
                continue
            yield module.finding(
                self.code,
                node,
                f"wire handler {node.name}() never opens a span "
                "(start_trace/_request_span); requests through it are "
                "invisible to tracing and slow-request forensics",
            )

    @staticmethod
    def _opens_span(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        name = dotted_name(node.func)
        return name is not None and name.rsplit(".", 1)[-1] in _SPAN_TAILS


def _is_obs_name(expr: ast.AST) -> str | None:
    name = dotted_name(expr)
    if name is None:
        return None
    tail = name.rsplit(".", 1)[-1]
    if tail in _OBS_SEGMENTS or tail.endswith(_OBS_SUFFIXES):
        return name
    return None


def _none_check_target(test: ast.expr) -> str | None:
    """The obs-sink name compared against None in this test, if any."""
    for sub in ast.walk(test):
        if not isinstance(sub, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Is, ast.IsNot)) for op in sub.ops):
            continue
        operands = [sub.left, *sub.comparators]
        if not any(
            isinstance(o, ast.Constant) and o.value is None for o in operands
        ):
            continue
        for operand in operands:
            name = _is_obs_name(operand)
            if name is not None:
                return name
    return None


class NullPatternRule(Rule):
    code = "REP104"
    name = "null-pattern"
    description = "hot paths use NULL_TRACER/.enabled, not None-checks"
    roles = frozenset({"server", "core"})

    def check(self, module: SourceModule) -> Iterator[Finding]:
        # Only statement-level ``if`` is flagged; the IfExp ternary
        # (``tracer if tracer is not None else NULL_TRACER``) is the
        # sanctioned constructor-site normalization.
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.If):
                continue
            name = _none_check_target(node.test)
            if name is None:
                continue
            yield module.finding(
                self.code,
                node,
                f"`if {name} is (not) None` branch on the hot path; "
                "normalize to NULL_TRACER/NULL_RECORDER at construction "
                f"and gate with `if {name}.enabled:` instead",
            )


def _is_wall_clock_call(node: ast.AST) -> bool:
    """True for ``time.time()`` or a bare imported ``time()`` call.

    Exact names only: ``self.time()`` or ``loop.time()`` are methods
    with their own (usually monotonic) semantics and must not match.
    """
    if not isinstance(node, ast.Call) or node.args or node.keywords:
        return False
    name = dotted_name(node.func)
    return name in ("time", "time.time")


class MonotonicClockRule(Rule):
    code = "REP104"
    name = "monotonic-clock"
    description = "durations are differences of a monotonic clock, not time.time()"
    roles = frozenset({"server", "core", "persistence", "obs"})

    def check(self, module: SourceModule) -> Iterator[Finding]:
        # Only subtraction is flagged: a *recorded* wall-clock stamp
        # (``span.start_ts = time()``) is legitimate — it is deltas
        # that NTP steps corrupt.
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.BinOp) or not isinstance(node.op, ast.Sub):
                continue
            if _is_wall_clock_call(node.left) or _is_wall_clock_call(node.right):
                yield module.finding(
                    self.code,
                    node,
                    "duration computed by differencing time.time(): wall "
                    "clocks step under NTP, producing negative or wrong "
                    "intervals; use time.monotonic() (or perf_counter) "
                    "for anything subtracted",
                )
