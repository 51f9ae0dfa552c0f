"""Repo-level pytest configuration.

Registers ``--jobs N``, shared by the benchmark suite (and any test that
exercises the parallel experiment engine): how many worker processes the
engine fans Monte-Carlo runs out over.  Results are identical for every
value, so CI can run the benchmark smoke job with ``--jobs auto``
without changing any asserted number.
"""


def pytest_addoption(parser):
    parser.addoption(
        "--jobs", action="store", default="1",
        help="worker processes for experiment runs "
             "(default 1; 0 or 'auto' = all cores)")
