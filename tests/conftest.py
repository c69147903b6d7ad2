import pytest

from helpers import make_sample_db
from huopminer import GeneratorSpec, generate_synthetic


@pytest.fixture(scope="session")
def sample_db():
    return make_sample_db()


@pytest.fixture(scope="session")
def scaled_sparse_db():
    """The sparse-wide shape scaled down to 20 000 transactions, which the
    memory pins measure; generated once per session and never changed."""
    return generate_synthetic(
        GeneratorSpec(n_items=200, n_transactions=20_000, avg_transaction_len=5, seed=3)
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Print one visible pass/fail line per acceptance criterion."""
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None or report.when != "call":
        return
    number, title = marker.args
    status = "PASS" if report.passed else "FAIL"
    reporter = item.config.pluginmanager.getplugin("terminalreporter")
    if reporter is not None:
        reporter.write_line(f"[criterion {number}] {status} - {title}")
