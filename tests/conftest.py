"""Shared fixtures.

Expensive artifacts (a provisioned SoC, generated bitstreams) are
session-scoped where tests only read them; tests that mutate simulation
state build their own instances from the cheap factories.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import Phase, settings

from repro.eval.scenarios import make_test_bitstream
from repro.soc.builder import build_soc

# Tier-1 draws the same property-test examples on every run and host,
# and keeps no example database, so its result depends only on the
# tree.  It skips the explain phase, which re-runs a shrunk failure
# many times only to comment which arguments could take any value: a
# failing serving-replay property reports in seconds instead of
# minutes, with the same falsifying example.
# ``--hypothesis-profile=explore --hypothesis-seed=N`` draws fresh
# examples instead, explain phase included (the CI explore job, seeded
# from the commit).
settings.register_profile(
    "tier1", derandomize=True, database=None,
    phases=[phase for phase in Phase if phase is not Phase.explain])
settings.register_profile("explore", derandomize=False, database=None)
settings.load_profile("tier1")


@pytest.fixture()
def soc():
    """A freshly built reference SoC (cheap: no SD provisioning)."""
    return build_soc()


@pytest.fixture()
def bare_soc():
    """Reference SoC without the case-study modules registered."""
    return build_soc(with_case_study_modules=False)


@pytest.fixture(scope="session")
def small_test_bitstream_bytes() -> bytes:
    """A valid ~134 KB partial bitstream (session-cached)."""
    return make_test_bitstream().to_bytes()


@pytest.fixture(scope="session")
def provisioned_manager_factory():
    """Factory building a fully provisioned (SoC, manager) pair.

    Provisioning costs ~2 s, so tests share one factory and request
    fresh pairs only when they mutate state.
    """
    from repro.drivers.manager import ReconfigurationManager

    def build(**kwargs):
        soc = build_soc()
        manager = ReconfigurationManager(soc, **kwargs)
        manager.provision_sdcard()
        manager.init_rmodules()
        return soc, manager

    return build


@pytest.fixture(scope="session")
def shared_manager(provisioned_manager_factory):
    """One provisioned manager for read-mostly assertions."""
    return provisioned_manager_factory()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)
