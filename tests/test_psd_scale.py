"""Verdicts that flip with the scale of their matrix.

``psd_verdict`` compares λ_min and the Hermitian defect with the absolute
``PSD_TOL``, while the solver's error is about ε‖M‖ (see ``eigen``), so a
verdict can change when its matrix is scaled.  Each case decides correctly
at scale one; at the scale that flips it, it is a strict expected failure,
which a scale-invariant tolerance turns into a pass (and its mark then goes).
"""

import numpy as np
import pytest

from groupoidqm import (
    Channel,
    is_cp,
    is_positive_type,
    random_kraus_channel,
    random_positive_type,
    to_choi,
    transpose_channel,
)

# a Kraus channel at n = 3 whose 9×9 Choi matrix has rank 8: its zero
# eigenvalue is computed as rounding noise of the matrix's scale
KRAUS_N, KRAUS_SEED = 3, 0


def flips(reason):
    """The mark of a case that the absolute tolerance decides wrongly."""
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


def kraus_channel():
    return random_kraus_channel(KRAUS_N, np.random.default_rng(KRAUS_SEED))


def state():
    return random_positive_type(3, np.random.default_rng(0))


def test_the_cases_decide_correctly_at_scale_one():
    assert not is_cp(transpose_channel(2)).ok
    assert is_positive_type(state()).ok
    ch = kraus_channel()
    assert is_cp(ch).ok
    assert np.linalg.matrix_rank(to_choi(ch).matrix) == 8


@flips("an absolute tolerance passes the transpose channel scaled by 1e-11")
def test_the_transpose_channel_is_not_cp_at_any_scale():
    assert not is_cp(Channel(transpose_channel(2).kernel * 1e-11)).ok


@flips("an absolute defect bound rejects the state scaled by 1e9 with a NaN")
def test_a_state_scaled_up_is_of_positive_type():
    res = is_positive_type(state() * 1e9)
    assert not np.isnan(res.min_eigenvalue)
    assert res.ok


@flips("rounding noise of 1e9 · ε fails an absolute tolerance")
def test_a_kraus_channel_scaled_up_is_cp():
    assert is_cp(Channel(kraus_channel().kernel * 1e9)).ok
