"""Benchmark fixtures.

Each benchmark regenerates one paper table or figure.  Runs are cached on
disk (``.cache/experiments``), so benchmarks that share cases — the
baseline run feeds Figures 1, 10, 12, 13, 16 and 17 — only pay once.

Environment knobs:

* ``REPRO_SCENES=BUNNY,LANDS`` restricts the scene list.
* ``REPRO_SCALE=4`` grows scenes and image area toward the paper's
  256x256 / full-suite setup.
* ``REPRO_FAST=1`` runs the tiny test-sized context instead.
"""

import pytest

from repro import settings
from repro.experiments import default_context
from repro.experiments.report import format_table


@pytest.fixture(scope="session")
def context():
    return default_context(fast=settings.get("REPRO_FAST"))


@pytest.fixture(scope="session")
def strict():
    """Whether the paper-shape assertions should bind.

    ``REPRO_FAST=1`` runs a tiny smoke context (16x16 pixels, two scenes)
    where divergence, queue populations and cache pressure are all far
    from the evaluated regime; there the benchmarks only verify the
    pipeline runs, not the result shapes.
    """
    return not settings.get("REPRO_FAST")


@pytest.fixture(scope="session")
def show():
    """Print a figure dict as an aligned table (visible with -s or on the
    captured stdout of the benchmark summary)."""

    def _show(result):
        print()
        print(format_table(result))
        return result

    return _show
