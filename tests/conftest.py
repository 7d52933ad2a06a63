"""Fixtures shared by the test modules."""

import pytest

import strav.gmsa


@pytest.fixture
def validations(monkeypatch):
    """The ``k`` of each plan ``gmsa._validate`` derives issues for, in call order."""
    calls = []
    validate = strav.gmsa._validate

    def spy(plan):
        calls.append(plan.k)
        return validate(plan)

    monkeypatch.setattr(strav.gmsa, "_validate", spy)
    return calls
