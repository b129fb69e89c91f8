"""The handlers on the ``nnexus`` logger across ``configure_logging`` runs.

Re-running ``configure_logging`` replaces the one stream handler it
owns: the old stream gets no further records, no second handler stacks
on the first, and the old stream is left open for its owner.  A handler
an embedding application attached itself is left alone.
"""

from __future__ import annotations

import io
import logging
import os
import subprocess
import sys
from pathlib import Path

from repro.obs.logging import configure_logging
from repro.obs.trace import Tracer


class TestSetHandlersLifecycle:
    def test_carried_over_handlers_stay_open(self, log_records) -> None:
        configure_logging(stream=io.StringIO())
        configure_logging(stream=io.StringIO())
        logging.getLogger("nnexus.t").info("after")
        assert [r["event"] for r in log_records] == ["after"]

    def test_replaced_handler_leaves_its_stream_open(self) -> None:
        first = io.StringIO()
        configure_logging(stream=first)
        configure_logging(stream=io.StringIO())
        assert not first.closed

    def test_configure_logging_reruns_do_not_leak(self) -> None:
        root = logging.getLogger("nnexus")
        before = len(root.handlers)
        first, second = io.StringIO(), io.StringIO()
        configure_logging(fmt="json", stream=first)
        logging.getLogger("nnexus.t").info("one")
        configure_logging(fmt="json", stream=second)
        logging.getLogger("nnexus.t").info("two")
        assert len(root.handlers) == before + 1
        assert "one" in first.getvalue()
        assert "two" not in first.getvalue()
        assert second.getvalue().count("\n") == 1

    def test_two_filtered_handlers_add_one_span_event(self, log_records) -> None:
        configure_logging(stream=io.StringIO())
        tracer = Tracer(seed=5)
        with tracer.span("request") as span:
            logging.getLogger("nnexus.t").info("once")
        events = tracer.get_trace(span.trace_id)["spans"][0]["events"]
        assert [e["name"] for e in events] == ["once"]
        assert log_records[0]["trace_id"] == span.trace_id


def test_embedding_app_without_logging_config_gets_a_quiet_stderr() -> None:
    # No configure_logging() and no handler of the app's own: the slow
    # request is counted and traced, but nothing reaches stderr through
    # the stdlib's last-resort handler.
    script = (
        "from repro.obs.trace import Tracer\n"
        "tracer = Tracer(slow_threshold=0.0)\n"
        "with tracer.span('linkEntry'):\n"
        "    pass\n"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0
    assert result.stderr == ""
