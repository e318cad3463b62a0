"""Service-suite fixtures: the flaky-watch time budget.

The service tests drive real concurrency — event loops, executor
threads, process-pool workers — where a regression often shows up as
a near-hang (a lost wakeup that a generous outer timeout eventually
papers over) rather than a failure.  The flaky-watch turns that smell
into a hard error: no single service test may take longer than
``FLAKY_BUDGET_SECONDS``.  Together with ``--durations=10`` in the
project addopts, slow drift is visible long before it becomes a CI
timeout.
"""

from time import perf_counter

import pytest

FLAKY_BUDGET_SECONDS = 30.0


@pytest.fixture(autouse=True)
def flaky_watch(request):
    """Fail any service test that exceeds the flaky-watch budget."""
    t0 = perf_counter()
    yield
    elapsed = perf_counter() - t0
    assert elapsed < FLAKY_BUDGET_SECONDS, (
        f"{request.node.nodeid} took {elapsed:.1f}s — over the "
        f"{FLAKY_BUDGET_SECONDS:.0f}s flaky-watch budget for service "
        "tests; a near-hang is a bug even when the test eventually "
        "passes"
    )
