"""REP104 clean fixture: spans opened, null-object pattern, logger used,
monotonic durations."""

import logging
from time import monotonic, time

NULL_TRACER = object()


class Span:
    def __init__(self):
        # Recording a wall-clock *timestamp* is fine: nothing is
        # differenced, the value is display metadata.
        self.start_ts = time()
        self._started = monotonic()

    def duration(self, loop):
        # Monotonic deltas and loop.time() (asyncio's monotonic clock,
        # a method call, not the time module) are the sanctioned shapes.
        return (monotonic() - self._started) + (loop.time() - loop.time())


_LOG = logging.getLogger("nnexus.fixture")


class Handler:
    def _request_span(self, name):
        return self.server.tracer.start_trace(name)

    def do_GET(self):
        with self._request_span("http.GET"):
            self.respond(200)

    def respond(self, status):
        return status


class Pipeline:
    def __init__(self, tracer=None):
        # Constructor-site ternary normalization is the sanctioned shape.
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def run(self, item):
        if self.tracer.enabled:
            self.tracer.record_span("stage.run", 0.0)
        return item


class Probe:
    def __init__(self, tracer):
        self.tracer = tracer

    def debug_dump(self):
        # Cold path, sanctioned by review with an inline waiver.
        if self.tracer is not None:  # lint: disable=REP104
            return self.tracer.recent_traces(5)
        return []
