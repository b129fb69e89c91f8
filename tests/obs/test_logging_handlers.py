"""Handler fan-out replacement in LogManager.

``set_handlers`` and ``configure_logging`` replace the fan-out list:
a dropped handler gets no further records, a carried-over one keeps
getting them, and re-running ``configure_logging`` never stacks a
second stream handler on the first.  The manager owns no resource of
a handler, so it never closes one.
"""

from __future__ import annotations

import io

from repro.obs.logging import LogManager, configure_logging, get_logger


class _ClosableHandler:
    def __init__(self) -> None:
        self.records: list[dict] = []
        self.closed = False

    def __call__(self, record: dict) -> None:
        self.records.append(record)

    def close(self) -> None:
        self.closed = True


class TestSetHandlersLifecycle:
    def test_carried_over_handlers_stay_open(self) -> None:
        keep = _ClosableHandler()
        extra = _ClosableHandler()
        manager = LogManager(handlers=[keep])
        manager.set_handlers([keep, extra])
        get_logger("t", manager=manager).info("after")
        assert not keep.closed
        assert [r["event"] for r in keep.records] == ["after"]
        assert [r["event"] for r in extra.records] == ["after"]

    def test_handlers_without_close_are_tolerated(self) -> None:
        events: list[dict] = []
        manager = LogManager(handlers=[events.append])
        get_logger("t", manager=manager).info("before")
        manager.set_handlers([])  # must not raise
        get_logger("t", manager=manager).info("after")
        assert [r["event"] for r in events] == ["before"]

    def test_configure_logging_reruns_do_not_leak(self) -> None:
        manager = LogManager()
        first, second = io.StringIO(), io.StringIO()
        configure_logging(fmt="json", stream=first, manager=manager)
        get_logger("t", manager=manager).info("one")
        configure_logging(fmt="json", stream=second, manager=manager)
        get_logger("t", manager=manager).info("two")
        assert "one" in first.getvalue()
        assert "two" not in first.getvalue()
        assert second.getvalue().count("\n") == 1
