import pytest

from spikeants import table


def _empty_store():
    for kept in table._kept.values():
        kept.cut()
    table._kept.clear()


@pytest.fixture(autouse=True)
def _cold_store():
    """Every test starts with no transition table kept by an earlier run."""
    _empty_store()


@pytest.fixture
def empty_store():
    """A function that cuts and drops every kept transition table, so
    that the next run starts cold. It holds no state of the test's own."""
    return _empty_store


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria")
    for number, ok, detail in sorted(RESULTS):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {number} {status}  {detail}")
