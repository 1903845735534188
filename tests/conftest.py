import functools

import pytest
from hypothesis import settings

from osnmasim.gst import Gst
from osnmasim.scenario import generate_synthetic_constellation

GST0 = Gst(1251, 277200)

# A property test that sets no example count of its own takes the active
# profile's: hypothesis's default of 100 in tier-1, or 2,000 under
# `pytest --hypothesis-profile=long`.
settings.register_profile("long", max_examples=2000)


@functools.cache
def small_constellation():
    """4 satellites, 12 subframes: enough for root acquisition plus a few
    authenticated rounds.  Property tests call it rather than take the
    fixture: hypothesis prints every argument of a falsifying example, and
    a bundle's repr is about 80 kB."""
    return generate_synthetic_constellation(seed=7, n_sats=4, n_subframes=12,
                                            gst0=GST0)


@pytest.fixture(scope="session")
def small_bundle():
    return small_constellation()


@pytest.fixture(scope="session")
def wide_bundle():
    """8 satellites, 16 subframes: used by attack and positioning tests."""
    return generate_synthetic_constellation(seed=11, n_sats=8, n_subframes=16,
                                            gst0=GST0)
