import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same examples on every run, so the suite's result
# and its wall time are reproducible numbers.
settings.register_profile(
    "tier1", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.load_profile("tier1")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
