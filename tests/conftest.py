"""One hypothesis profile for the whole suite: examples drawn from a fixed
seed, no time limit per example, and no example database. The
--reverse-order option runs the collected tests last to first, to catch
tests that pass only after (or before) another one."""

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

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
