"""Hot-path classes must stay ``__slots__``-only (no per-instance dict).

These classes are instantiated or touched millions of times per simulation;
an accidental ``__dict__`` (e.g. from dropping ``__slots__`` in a subclass
or adding a class attribute carelessly) silently costs memory and speed.
"""

import pytest

from repro.branch.predictors import BimodalPredictor
from repro.core.configs import BASELINE
from repro.memory.cache import Cache, CacheConfig
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.funits import FUPool


def make_instances():
    cache = Cache(CacheConfig("t", sets=4, ways=2, block_bytes=32))
    return [
        FUPool(BASELINE.fu),
        cache,
        MemoryHierarchy(),
        BimodalPredictor(),
    ]


@pytest.mark.parametrize("obj", make_instances(),
                         ids=lambda o: type(o).__name__)
def test_no_instance_dict(obj):
    assert not hasattr(obj, "__dict__"), (
        f"{type(obj).__name__} grew a __dict__ — check __slots__ on it "
        f"and every base class")


def test_slots_reject_unknown_attributes():
    pool = FUPool(BASELINE.fu)
    with pytest.raises(AttributeError):
        pool.unknown_attribute = 1
