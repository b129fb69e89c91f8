"""Every rule family: >=1 true-positive and >=1 clean/suppressed fixture."""

from __future__ import annotations

from pathlib import Path

from repro.lint import (
    BackendTransactionRule,
    BoundedInListRule,
    CloseOnRaiseRule,
    HandlerSpanRule,
    JournalDisciplineRule,
    LockHygieneRule,
    MonotonicClockRule,
    NullPatternRule,
    PrintBanRule,
    WireAdditivityRule,
)
from repro.lint.engine import run_rules

FIXTURES = Path(__file__).parent / "fixtures"


def _run(rule, *relpaths):
    return run_rules(
        [FIXTURES / rel for rel in relpaths], [rule], root=FIXTURES
    )


class TestLockHygieneREP101:
    def test_flags_sleep_socket_and_storage_io_under_locks(self) -> None:
        findings, _ = _run(LockHygieneRule(), "server/rep101_bad.py")
        blocking = [f.message.split("(")[0] for f in findings]
        assert len(findings) == 3
        assert any("time.sleep" in m for m in blocking)
        assert any("sendall" in m for m in blocking)
        assert any("storage.record_add" in m for m in blocking)

    def test_clean_shapes_pass_and_waiver_is_counted(self) -> None:
        findings, suppressed = _run(LockHygieneRule(), "server/rep101_clean.py")
        assert findings == []
        assert len(suppressed) == 1

    def test_rule_is_scoped_to_server_and_core(self) -> None:
        findings, _ = _run(LockHygieneRule(), "storage/rep103_bad.py")
        assert findings == []


class TestBackendTransactionREP102:
    def test_flags_bare_mutations_in_durable_journal_methods(self) -> None:
        findings, _ = _run(
            BackendTransactionRule(), "persistence/rep102_backend_bad.py"
        )
        contexts = {f.context for f in findings}
        assert len(findings) == 3  # upsert + delete in record_add, upsert
        assert contexts == {
            "Backend.record_add",
            "Backend.record_rendering",
        }

    def test_transactions_contracts_and_volatile_backends_pass(self) -> None:
        findings, _ = _run(
            BackendTransactionRule(), "persistence/rep102_backend_clean.py"
        )
        assert findings == []

    def test_flags_sqlite_write_outside_the_connection_scope(self) -> None:
        findings, _ = _run(
            BackendTransactionRule(), "persistence/rep102_sqlite_bad.py"
        )
        assert [f.context for f in findings] == ["SqliteBackend.record_update"]


class TestJournalDisciplineREP102:
    def test_flags_direct_storage_calls(self) -> None:
        findings, _ = _run(
            JournalDisciplineRule(), "core/rep102_caller_bad.py"
        )
        assert len(findings) == 2
        assert "record_add(" in findings[0].message
        assert "record_bulk_add(" in findings[1].message

    def test_journal_lambda_contract_and_waiver_pass(self) -> None:
        findings, suppressed = _run(
            JournalDisciplineRule(), "core/rep102_caller_clean.py"
        )
        assert findings == []
        assert len(suppressed) == 1


class TestCloseOnRaiseREP103:
    def test_flags_leaks_on_raised_paths(self) -> None:
        findings, _ = _run(CloseOnRaiseRule(), "storage/rep103_bad.py")
        contexts = {f.context for f in findings}
        assert contexts == {
            "leaky_open",
            "LeakyBackend.__init__",
            "leaky_after_guard",
        }

    def test_guarded_shapes_pass_and_waiver_is_counted(self) -> None:
        findings, suppressed = _run(CloseOnRaiseRule(), "storage/rep103_clean.py")
        assert findings == []
        assert len(suppressed) == 1

    def test_flags_sqlite_backend_left_open_on_raise(self) -> None:
        findings, _ = _run(
            CloseOnRaiseRule(), "storage/rep103_sqlite_backend_bad.py"
        )
        assert [f.context for f in findings] == ["count_objects"]


class TestBoundedInListREP103:
    def test_flags_unchunked_interpolated_in_list(self) -> None:
        findings, _ = _run(BoundedInListRule(), "storage/rep103_bad.py")
        assert len(findings) == 1
        assert findings[0].context == "LeakyBackend.invalidate"

    def test_chunked_in_list_passes(self) -> None:
        findings, _ = _run(BoundedInListRule(), "storage/rep103_clean.py")
        assert findings == []


class TestObservabilityREP104:
    RULES = (PrintBanRule, HandlerSpanRule, NullPatternRule, MonotonicClockRule)

    def test_flags_print_spanless_handler_none_chain_and_wall_delta(self) -> None:
        rules = [cls() for cls in self.RULES]
        findings, _ = run_rules(
            [FIXTURES / "server" / "rep104_bad.py"], rules, root=FIXTURES
        )
        names = sorted(f.message.split()[0] for f in findings)
        assert len(findings) == 5
        assert any("print()" in f.message for f in findings), names
        assert any("never opens a span" in f.message for f in findings)
        assert any("NULL_TRACER" in f.message for f in findings)
        wall = [f for f in findings if "time.time()" in f.message]
        assert len(wall) == 2  # module-qualified and bare-imported delta

    def test_clean_shapes_pass_and_waiver_is_counted(self) -> None:
        rules = [cls() for cls in self.RULES]
        findings, suppressed = run_rules(
            [FIXTURES / "server" / "rep104_clean.py"], rules, root=FIXTURES
        )
        assert findings == []
        assert len(suppressed) == 1


class TestWireAdditivityREP105:
    SCHEMA = FIXTURES / "wire_schema_fixture.json"

    def test_flags_dropped_key_and_unknown_surface(self) -> None:
        findings, _ = run_rules(
            [FIXTURES / "server" / "wire_drop" / "server.py"],
            [WireAdditivityRule(schema_path=self.SCHEMA)],
            root=FIXTURES,
        )
        assert len(findings) == 2
        dropped = next(f for f in findings if "dropped" in f.message)
        assert "pong" in dropped.message
        unknown = next(f for f in findings if "not in the schema" in f.message)
        assert "_sneaky" in unknown.message

    def test_matching_surface_passes_and_waiver_is_counted(self) -> None:
        findings, suppressed = run_rules(
            [FIXTURES / "server" / "wire_ok" / "server.py"],
            [WireAdditivityRule(schema_path=self.SCHEMA)],
            root=FIXTURES,
        )
        assert findings == []
        assert len(suppressed) == 1
