import pytest

from gclifford import groups, intmat
from gclifford.groups import invert_automorphism


@pytest.fixture
def smith_calls(monkeypatch):
    """The number of Smith forms run through ``groups`` or ``intmat``, in a
    one-entry list, with the inverse memo cleared before and after."""
    calls = [0]
    real = intmat.smith_normal_form

    def counting(mat):
        calls[0] += 1
        return real(mat)

    monkeypatch.setattr(groups, "smith_normal_form", counting)
    monkeypatch.setattr(intmat, "smith_normal_form", counting)
    invert_automorphism.cache_clear()
    yield calls
    invert_automorphism.cache_clear()
