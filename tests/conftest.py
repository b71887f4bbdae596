"""One hypothesis profile for the whole suite: examples drawn from a fixed
seed, no time limit per example, and no example database. The
--reverse-order option runs the collected tests last to first, to catch
tests that pass only after (or before) another one. Every test must leave
numpy's BLAS thread count as it found it."""

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from svdgcl.harness import _blas_threads

settings.register_profile("svdgcl", derandomize=True, max_examples=100, deadline=None, database=None)
settings.load_profile("svdgcl")


def pytest_configure(config):
    # hypothesis still caches the constants it reads from local source files
    # in its home directory, ./.hypothesis by default; keep it in pytest's own
    # cache (absent under -p no:cacheprovider)
    if hasattr(config, "cache"):
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


def pytest_addoption(parser):
    parser.addoption(
        "--reverse-order", action="store_true", default=False, help="run the collected tests in reverse order"
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--reverse-order"):
        items.reverse()


@pytest.fixture(autouse=True)
def blas_thread_count_kept():
    """Fail a test that changes numpy's BLAS thread count, and put the count
    back so later tests do not inherit it. Nothing is checked where numpy
    does not bundle scipy-openblas."""
    handle = _blas_threads()
    before = handle[0]() if handle else None
    yield
    if handle and handle[0]() != before:
        after = handle[0]()
        handle[1](before)
        pytest.fail(f"the test left numpy's BLAS thread count at {after}, not {before}")
