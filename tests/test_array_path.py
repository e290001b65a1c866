"""Complex kernel outputs held as read-only complex128 arrays.

A complex128 output of a kernel (``from_tensor``, ``apply``, the float
``convolve`` and ``involute``, ``fiber_restrict``, the falsifier's witness)
is held as an owned, read-only array, which the next kernel reads as it is.
``values`` is a tuple built from it once, and reading it leaves the array
held, so the next kernel reads the array still.
"""

import json
from unittest import mock

import numpy as np
import pytest
from oracles import assert_same_values

from groupoidqm import (
    AlgebraElement,
    ChoiMatrix,
    KrausFamily,
    QuotientFunction,
    apply,
    channel_from_choi,
    convolve,
    from_kraus,
    involute,
    is_cp,
    is_flat_psd,
    kernel_positive_type,
    pair_groupoid,
    positivity_falsifier,
    to_choi,
    transpose_channel,
    weighted_pair_measure,
)
from groupoidqm import algebra
from groupoidqm.algebra import complex_values_to_json


def complex_values(rng, size):
    return list(rng.normal(size=size) + 1j * rng.normal(size=size))


def kraus_channel(rng, n):
    g = pair_groupoid(n)
    return from_kraus(KrausFamily(n, [AlgebraElement(g, complex_values(rng, n * n)) for _ in range(n)]))


def choi_channel(rng, n):
    h = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
    return channel_from_choi(ChoiMatrix(n, (h + h.conj().T) / 2))


# -- held arrays are owned --


def test_an_array_given_is_copied():
    rng = np.random.default_rng(33)
    n = 2
    t = rng.normal(size=(n,) * 4) + 1j * rng.normal(size=(n,) * 4)
    q = QuotientFunction.from_tensor(t)
    want = t.reshape(-1).tolist()
    t[0, 1, 0, 1] = 99
    assert_same_values(q.values, want)
    # channel_from_choi hands over a transposed view of the Choi matrix
    h = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
    ch = channel_from_choi(ChoiMatrix(n, h))
    want = h.reshape(n, n, n, n).transpose(0, 1, 3, 2).reshape(-1).tolist()
    h[1, 2] = 99
    assert_same_values(ch.kernel.values, want)
    # pullback_embed hands over a broadcast_to view of the function's values
    base = np.array(complex_values(rng, n * n))
    q = QuotientFunction.from_tensor(np.broadcast_to(base.reshape(n, 1, 1, n), (n,) * 4))
    want = q.tensor().reshape(-1).tolist()
    base[0] = 99
    assert_same_values(q.values, want)
    # an element is built from its own copy too, and reads as Python complex
    values = np.array(complex_values(rng, n * n))
    psi = AlgebraElement(pair_groupoid(n), values)
    want = values.tolist()
    values[:] = 99
    assert_same_values(psi.values, want)


def test_outputs_hold_read_only_arrays_and_values_are_a_kept_tuple():
    rng = np.random.default_rng(37)
    g = pair_groupoid(3)
    m = weighted_pair_measure(g, (0.5, 2.0, 1.25))
    f = AlgebraElement(g, complex_values(rng, 9))
    outputs = (apply(kraus_channel(rng, 3), f), convolve(f, f, m), involute(f, m))
    for out in outputs + (AlgebraElement(g, range(9)),):
        values = out.values
        assert type(values) is tuple and out.values is values
        with pytest.raises(TypeError):
            values[0] = 5
        with pytest.raises(AttributeError):
            out.values = values
    assert all(type(out._form) is np.ndarray and not out._form.flags.writeable for out in outputs)


def test_a_tensor_is_read_only():
    rng = np.random.default_rng(34)
    for ch in (kraus_channel(rng, 2), transpose_channel(2)):
        t = ch.kernel.tensor()
        with pytest.raises(ValueError):
            t[0, 0, 0, 0] = 5
        assert len(ch.kernel.values) == 16  # a read of the values leaves the tensor a view of the held array
        with pytest.raises(ValueError):
            ch.kernel.tensor()[0, 0, 0, 0] = 5
    ch = kraus_channel(rng, 1)  # n = 1: the Choi matrix needs no transpose, and is still a copy
    choi = to_choi(ch).matrix
    choi[0, 0] = 5
    assert to_choi(ch).matrix[0, 0] != 5


# -- the kernel is not rebuilt from its values --


def value_arrays_made(op) -> int:
    """The number of ``value_array`` calls that op() makes."""
    with mock.patch.object(algebra, "value_array", wraps=algebra.value_array) as counted:
        op()
    return counted.call_count


VERDICTS = {
    "to_choi": to_choi,
    "is_cp": is_cp,
    "is_flat_psd": is_flat_psd,
    "kernel_positive_type": kernel_positive_type,
    "positivity_falsifier": lambda ch: positivity_falsifier(ch, 4, seed=3, ancilla=2),
}


@pytest.mark.parametrize("make", [kraus_channel, choi_channel])
def test_verdicts_read_the_held_kernel_array(make):
    rng = np.random.default_rng(35)
    ch = make(rng, 3)
    assert value_arrays_made(lambda: None) == 0
    assert {name: value_arrays_made(lambda: op(ch)) for name, op in VERDICTS.items()} == dict.fromkeys(VERDICTS, 0)
    assert len(ch.kernel.values) == 81  # the read builds the tuple and keeps the array
    assert {name: value_arrays_made(lambda: op(ch)) for name, op in VERDICTS.items()} == dict.fromkeys(VERDICTS, 0)


# -- JSON straight from the held array --


def test_json_from_a_held_array_matches_the_list():
    rng = np.random.default_rng(36)
    n = 3
    t = rng.normal(size=n**4) + 1j * rng.normal(size=n**4)
    t[:4] = [complex(-0.0, 5e-324), complex(5e-324, -0.0), complex(-5e-324, 0.0), complex(1e308, -1e-308)]
    q = QuotientFunction.from_tensor(t.reshape((n,) * 4))
    held = json.dumps(q.to_json())
    listed = json.dumps({"n": n, "values": [[c.real, c.imag] for c in t.tolist()]})
    assert held == listed
    assert held.startswith('{"n": 3, "values": [[-0.0, 5e-324], [5e-324, -0.0], [-5e-324, 0.0]')
    assert complex_values_to_json(t) == complex_values_to_json(t.tolist())
    assert complex_values_to_json(t[::2]) == complex_values_to_json(t[::2].tolist())  # a strided view
    assert json.dumps(q.to_json()) == json.dumps({"n": n, "values": complex_values_to_json(q.values)})


# -- the witness --


def test_the_witness_holds_its_state_and_output_as_arrays():
    witness = positivity_falsifier(transpose_channel(2), 10, seed=0, ancilla=2)
    assert witness is not None
    for element in (witness.state, witness.output):
        assert all(type(v) is complex for v in element.values)
    assert not witness.output.values == witness.state.values
