"""A guard on torus's decisions, shared by test_torus and test_cli."""

from functools import wraps

import pytest

from salemtori import torus


def _refuse(*args):
    raise AssertionError("root isolation or refinement in a decision")


@pytest.fixture
def no_roots():
    """Wrap a function so that torus refuses root isolation and refinement
    while it runs."""

    def guard(fn):
        @wraps(fn)
        def guarded(*args, **kwargs):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(torus, "isolate_all_roots", _refuse)
                mp.setattr(torus, "refine_root_box", _refuse)
                return fn(*args, **kwargs)

        return guarded

    return guard
