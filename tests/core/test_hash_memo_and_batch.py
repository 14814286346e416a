"""Regressions for the hash-draw memo and the batched hashing path.

The old global ``_HASH_MEMO`` grew without bound across maintenance
periods and — worse — survived :func:`set_hash_family`, silently serving
draws from the previous family.  The memo is now bounded and keyed to
the active family; the η operator's columnar path hashes key columns in
one batched pass that must agree element-wise with the scalar hash.
"""

import numpy as np
import pytest

from repro.algebra import evaluator
from repro.algebra.evaluator import clear_hash_memo, hash_draw
from repro.stats.hashing import (
    linear_unit,
    set_hash_family,
    sha1_unit,
    unit_hash,
    unit_hash_batch,
)


@pytest.fixture(autouse=True)
def _reset_family():
    clear_hash_memo()
    yield
    set_hash_family("sha1")
    clear_hash_memo()


def test_memo_invalidated_on_family_change():
    """set_hash_family alone must not leave stale draws in the memo."""
    keys = [(i,) for i in range(50)]
    sha_draws = [hash_draw(k, 0) for k in keys]
    assert sha_draws == [sha1_unit(k, 0) for k in keys]
    set_hash_family("linear")
    lin_draws = [hash_draw(k, 0) for k in keys]
    assert lin_draws == [linear_unit(k, 0) for k in keys]
    assert lin_draws != sha_draws


def test_memo_is_bounded(monkeypatch):
    """The memo never holds more than HASH_MEMO_LIMIT entries."""
    monkeypatch.setattr(evaluator, "HASH_MEMO_LIMIT", 16)
    clear_hash_memo()
    for i in range(100):
        hash_draw((i,), 0)
    assert len(evaluator._HASH_MEMO) <= 16
    # Draws stay correct after evictions.
    assert hash_draw((7,), 0) == sha1_unit((7,), 0)


def test_memo_distinguishes_seeds():
    a = hash_draw((42,), 0)
    b = hash_draw((42,), 1)
    assert a != b
    assert a == unit_hash((42,), 0)
    assert b == unit_hash((42,), 1)


@pytest.mark.parametrize("family", ["sha1", "linear"])
def test_batch_matches_scalar(family):
    """unit_hash_batch == element-wise unit_hash for every key shape."""
    set_hash_family(family)
    ids = list(range(-3, 500)) + [10**25]
    strs = [f"k{i}" for i in range(len(ids))]
    # Single int column (linear family takes the vectorized path).
    got = unit_hash_batch([ids])
    want = np.array([unit_hash((i,), 0) for i in ids])
    assert np.array_equal(got, want)
    # Multi-column mixed keys (loop path).
    got2 = unit_hash_batch([ids, strs], seed=5)
    want2 = np.array([unit_hash((i, s), 5) for i, s in zip(ids, strs)])
    assert np.array_equal(got2, want2)


def test_batch_linear_vectorized_path_is_exact():
    set_hash_family("linear")
    ids = list(range(200_0))
    got = unit_hash_batch([ids], seed=9)
    want = np.array([linear_unit((i,), 9) for i in ids])
    assert np.array_equal(got, want)


def test_batch_handles_none_and_mixed_types():
    vals = [None, 1, "a", 2.5, True, b"zz"]
    got = unit_hash_batch([vals])
    want = np.array([unit_hash((v,), 0) for v in vals])
    assert np.array_equal(got, want)


def test_batch_empty_column():
    assert unit_hash_batch([[]]).shape == (0,)


def test_batch_requires_columns():
    with pytest.raises(ValueError):
        unit_hash_batch([])


@pytest.mark.parametrize("first, other", [
    ((1,), (1.0,)),
    ((1,), (True,)),
    ((1.0,), (1,)),
    ((0.0,), (-0.0,)),
    ((-0.0,), (0.0,)),
    (("a", 1), ("a", 1.0)),
])
def test_draw_does_not_depend_on_an_equal_key_drawn_first(first, other):
    """``1 == 1.0 == True`` and ``0.0 == -0.0`` are one dict key but
    hash apart: whichever was drawn first, each gets its own draw."""
    hash_draw(first, 5)
    assert hash_draw(other, 5) == sha1_unit(other, 5)
    assert hash_draw(first, 5) == sha1_unit(first, 5)


def test_batch_draws_do_not_depend_on_an_equal_key_drawn_first():
    """The η kernel over a float, bool or int key column gives every row
    its own family's draw, whatever equal keys were drawn before; the
    int and str columns still fill the memo."""
    from repro.algebra import Relation, Schema
    from repro.algebra.evaluator import eta_draws

    schema = Schema(["k"])
    for first, other in ([1, 2], [1.0, 2.0]), ([1, 0], [True, False]), (
            [0.0], [-0.0]), ([1.0, 2.0], [1, 2]):
        clear_hash_memo()
        eta_draws(Relation(schema, [(v,) for v in first]), ("k",), 5)
        rel = Relation(schema, [(v,) for v in other])
        assert eta_draws(rel, ("k",), 5).tolist() == [
            sha1_unit((v,), 5) for v in other]
    clear_hash_memo()
    eta_draws(Relation(schema, [(i,) for i in range(4)]), ("k",), 5)
    eta_draws(Relation(schema, [(str(i),) for i in range(4)]), ("k",), 5)
    assert len(evaluator._HASH_MEMO) == 8
