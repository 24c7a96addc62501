"""Spies on torus's decisions, shared by test_torus and test_cli."""

from functools import cached_property, wraps

import pytest

from salemtori import torus


def _refuse(*args):
    raise AssertionError("root isolation or refinement in a decision")


@pytest.fixture
def verdicts(monkeypatch):
    """The models whose projectivity verdict is computed, in order."""
    calls = []
    decide = torus.TorusModel._projective.func

    def spy(model):
        calls.append(model)
        return decide(model)

    prop = cached_property(spy)
    prop.__set_name__(torus.TorusModel, "_projective")
    monkeypatch.setattr(torus.TorusModel, "_projective", prop)
    return calls


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
