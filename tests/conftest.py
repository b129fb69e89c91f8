"""Fixtures shared by every suite: the ``nnexus`` logger's state."""

import logging

import pytest

from repro.obs.logging import TraceFilter, log_fields


class CaptureHandler(logging.Handler):
    """Keeps each record as the flat dict the formatters write."""

    def __init__(self) -> None:
        super().__init__()
        self.records: list[dict] = []
        self.addFilter(TraceFilter())

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(log_fields(record))


@pytest.fixture(autouse=True)
def restore_nnexus_logger():
    """Undo what ``configure_logging`` (run by the CLIs under test) did
    to the process-wide ``nnexus`` logger."""
    logger = logging.getLogger("nnexus")
    handlers, level = list(logger.handlers), logger.level
    yield
    logger.handlers[:] = handlers
    logger.setLevel(level)


@pytest.fixture()
def log_records():
    """Records of the ``nnexus`` loggers at DEBUG and up, as dicts."""
    handler = CaptureHandler()
    logger = logging.getLogger("nnexus")
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    yield handler.records
    logger.removeHandler(handler)
