import random

import pytest
from hypothesis import settings

# Property tests run a fixed, bounded set of examples, so tier-1 runs are
# reproducible and stay inside their time budget.
settings.register_profile("funcobs", derandomize=True, max_examples=60,
                          deadline=None, database=None)
settings.load_profile("funcobs")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260809)
