"""Properties of the dataset's train index over random small pair sets.

Shapes run to 6 x 6, so users and items without any pair, single-pair
users and full rows all turn up. Each property is checked against a plain
Python or dense-loop oracle that shares no code with the index.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import csr_array

from svdgcl.errors import ProtocolError
from svdgcl.interactions import InteractionDataset, build_adjacency, normalize_adjacency
from tests.util import protocol_error_unindexed


def as_pairs(pairs):
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


@st.composite
def graphs(draw, max_side=6):
    """(num_users, num_items, train pairs, validation pairs): distinct pairs
    in draw order, the validation ones disjoint from train."""
    m = draw(st.integers(1, max_side))
    n = draw(st.integers(1, max_side))
    pairs = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)), max_size=m * n, unique=True))
    to_val = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    train = [p for p, v in zip(pairs, to_val) if not v]
    val = [p for p, v in zip(pairs, to_val) if v]
    return m, n, train, val


def dataset(m, n, train, val=()):
    return InteractionDataset(num_users=m, num_items=n, train=as_pairs(train), validation=as_pairs(val), test=as_pairs([]))


class TestIndex:
    @given(graphs())
    def test_membership_is_set_membership(self, g):
        m, n, train, val = g
        ds = dataset(m, n, train, val)
        users, items = np.divmod(np.arange(m * n, dtype=np.int64), n)
        held = set(train)
        expect = [(int(u), int(i)) in held for u, i in zip(users, items)]
        assert ds.in_train(users, items).tolist() == expect
        # repeated and unordered probes
        probe = np.array(list(reversed(range(m * n))) * 2, dtype=np.int64)
        assert ds.in_train(*np.divmod(probe, n)).tolist() == [expect[k] for k in probe]

    @given(graphs())
    def test_items_by_user_are_sorted_per_user_lists(self, g):
        m, n, train, val = g
        ds = dataset(m, n, train, val)
        for split, pairs in (("train", train), ("val", val), ("test", [])):
            got = ds.items_by_user(split)
            assert len(got) == m
            for u in range(m):
                assert got[u].dtype == np.int64
                assert got[u].tolist() == sorted(i for uu, i in pairs if uu == u)

    @given(graphs())
    def test_adjacency_is_canonical_and_matches_dense_oracle(self, g):
        m, n, train, val = g
        a = build_adjacency(dataset(m, n, train, val))
        assert isinstance(a, csr_array)
        assert a.shape == (m, n)
        assert a.has_canonical_format
        for u in range(m):
            assert np.all(np.diff(a.indices[a.indptr[u] : a.indptr[u + 1]]) > 0)
        dense = np.zeros((m, n))
        for u, i in train:
            dense[u, i] = 1.0
        np.testing.assert_array_equal(a.toarray(), dense)

        norm = normalize_adjacency(a)
        assert norm.has_canonical_format
        want = np.zeros((m, n))
        for u, i in train:
            du = sum(1 for uu, _ in train if uu == u)
            di = sum(1 for _, ii in train if ii == i)
            want[u, i] = 1.0 / np.sqrt(float(du * di))
        np.testing.assert_array_equal(norm.toarray(), want)


def split_lists(m, n, in_range):
    lo_u, hi_u = (0, m - 1) if in_range else (-1, m)
    lo_i, hi_i = (0, n - 1) if in_range else (-1, n)
    pair = st.tuples(st.integers(lo_u, hi_u), st.integers(lo_i, hi_i))
    return st.lists(pair, max_size=8)


@st.composite
def any_splits(draw):
    """Three splits that may hold duplicates, overlaps, cold test ids and,
    in a share of draws, out-of-range indices."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    in_range = draw(st.integers(0, 3)) > 0
    return m, n, [as_pairs(draw(split_lists(m, n, in_range))) for _ in range(3)]


class TestValidation:
    @given(any_splits())
    def test_same_protocol_error_as_the_unindexed_validator(self, case):
        m, n, (train, val, test) = case
        want = protocol_error_unindexed(m, n, train, val, test)
        try:
            InteractionDataset(num_users=m, num_items=n, train=train, validation=val, test=test)
        except ProtocolError as err:
            got = str(err)
        else:
            got = None
        assert got == want
