import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperrank import SparseRealMatrix, sparse
from hyperrank.sparse import packed_sort, packed_unique, row_blocks

import oracles


def test_from_coo_sums_duplicates_and_drops_zeros():
    m = SparseRealMatrix.from_coo(2, 3, [0, 0, 1, 1, 1], [1, 1, 0, 2, 2],
                                  [2.0, 3.0, 4.0, 1.0, -1.0])
    assert m.nnz == 2
    assert m.to_dense().tolist() == [[0.0, 5.0, 0.0], [4.0, 0.0, 0.0]]


def test_from_dense_round_trip():
    rng = np.random.default_rng(0)
    dense = rng.random((5, 7))
    dense[dense < 0.5] = 0.0
    m = oracles.from_dense(dense)
    np.testing.assert_array_equal(m.to_dense(), dense)


def test_structural_equality():
    a = SparseRealMatrix.from_coo(2, 2, [0], [1], [1.0])
    b = SparseRealMatrix.from_coo(2, 2, [0], [1], [1.0])
    c = SparseRealMatrix.from_coo(2, 2, [1], [0], [1.0])
    assert a == b
    assert a != c


def test_rejects_out_of_range_entries():
    with pytest.raises(IndexError):
        SparseRealMatrix.from_coo(2, 2, [0], [5], [1.0])


def test_rejects_malformed_csr():
    with pytest.raises(ValueError):
        SparseRealMatrix(2, 2, [0, 1], [0], [1.0])  # indptr too short
    with pytest.raises(ValueError):
        SparseRealMatrix(1, 3, [0, 2], [1, 1], [1.0, 2.0])  # duplicate column
    with pytest.raises(ValueError):
        SparseRealMatrix(1, 3, [0, 2], [2, 1], [1.0, 2.0])  # unsorted column
    with pytest.raises(ValueError):
        SparseRealMatrix(1, 3, [0, 1], [1], [0.0])  # stored zero


def test_left_multiply_matches_dense_oracle():
    rng = np.random.default_rng(42)
    for _ in range(25):
        rows, cols = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        dense = rng.random((rows, cols))
        dense[dense < 0.4] = 0.0
        x = rng.random(rows)
        m = oracles.from_dense(dense)
        np.testing.assert_allclose(m.left_multiply(x), x @ dense,
                                   rtol=0, atol=1e-14)


def test_row_sums_and_row_access():
    m = SparseRealMatrix.from_coo(3, 3, [0, 0, 2], [0, 2, 1], [1.0, 2.0, 5.0])
    np.testing.assert_array_equal(m.row_sums(), [3.0, 0.0, 5.0])
    a, b = m.indptr[0:2]
    assert m.indices[a:b].tolist() == [0, 2]
    assert m.data[a:b].tolist() == [1.0, 2.0]
    a, b = m.indptr[1:3]
    assert a == b


def test_arrays_are_frozen():
    m = SparseRealMatrix.from_coo(1, 1, [0], [0], [1.0])
    with pytest.raises(ValueError):
        m.data[0] = 2.0


# bounded so that no product or sum overflows to inf and then to nan
_reals = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)


@st.composite
def csr_with_vector(draw):
    # few columns and more rows, so that columns collect several products
    rows = draw(st.integers(0, 10))
    cols = draw(st.integers(1, 5))
    indptr, indices = [0], []
    for _ in range(rows):
        indices += sorted(draw(st.sets(st.integers(0, cols - 1))))
        indptr.append(len(indices))
    data = draw(st.lists(_reals.filter(bool), min_size=len(indices),
                         max_size=len(indices)))
    x = draw(st.lists(_reals, min_size=rows, max_size=rows))
    return SparseRealMatrix(rows, cols, indptr, indices, data), np.array(x)


@settings(max_examples=300, deadline=None)
@given(csr_with_vector())
def test_products_match_loop_oracles_bitwise(case):
    m, x = case
    expected = np.zeros(m.cols)
    oracles.csr_left_multiply(m.indptr, m.indices, m.data, x, expected)
    got = m.left_multiply(x)
    assert got.dtype == np.float64
    assert got.tobytes() == expected.tobytes()
    sums = m.row_sums()
    assert sums.dtype == np.float64
    assert sums.tobytes() == oracles.row_sums(m.indptr, m.data).tobytes()
    assert m.to_dense().tobytes() == oracles.to_dense(m).tobytes()


@st.composite
def coo_entries(draw):
    # a small grid, so that keys repeat; values that cancel or are zero
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 4))
    size = draw(st.integers(0, 30)) if rows and cols else 0
    row = draw(st.lists(st.integers(0, max(rows - 1, 0)), min_size=size, max_size=size))
    col = draw(st.lists(st.integers(0, max(cols - 1, 0)), min_size=size, max_size=size))
    special = st.sampled_from([0.0, -0.0, 0.1, -0.1, 1e16])
    value = draw(st.lists(st.one_of(_reals, special), min_size=size, max_size=size))
    return rows, cols, row, col, value


@settings(max_examples=300, deadline=None)
@given(coo_entries())
def test_from_coo_matches_dict_oracle_bitwise(case):
    got = oracles.csr_bytes(SparseRealMatrix.from_coo(*case))
    assert got == oracles.csr_bytes(oracles.from_coo(*case))
    assert got == oracles.csr_bytes(oracles.from_coo_packed(*case))


def test_from_coo_sums_duplicates_in_input_order():
    values = [1e16, 1.0, -1e16, 1.0]
    case = (1, 2, [0] * 4, [1] * 4, values)
    m = SparseRealMatrix.from_coo(*case)
    assert m.data.tolist() == [((0.0 + 1e16) + 1.0 - 1e16) + 1.0]
    assert oracles.csr_bytes(m) == oracles.csr_bytes(oracles.from_coo(*case))
    # entries that cancel exactly are dropped like explicit zeros
    m = SparseRealMatrix.from_coo(2, 2, [0, 1, 1, 0], [0, 1, 1, 1],
                                  [0.0, 2.5, -2.5, 3.0])
    assert m.indptr.tolist() == [0, 1, 1]
    assert (m.indices.tolist(), m.data.tolist()) == ([1], [3.0])


@pytest.mark.parametrize("row, col", [([0, 2], [0, 0]), ([0, 0], [1, -1]),
                                      ([-1], [0]), ([1], [3])])
def test_from_coo_rejects_entries_outside_the_shape(row, col):
    value = [1.0] * len(row)
    with pytest.raises(IndexError) as got:
        SparseRealMatrix.from_coo(2, 3, row, col, value)
    with pytest.raises(IndexError) as ref:
        oracles.from_coo(2, 3, row, col, value)
    assert str(got.value) == str(ref.value)


def test_from_coo_rejects_misaligned_arrays():
    with pytest.raises(ValueError):
        SparseRealMatrix.from_coo(2, 2, [0, 1], [0], [1.0])
    with pytest.raises(ValueError):
        SparseRealMatrix.from_coo(2, 2, [[0]], [[0]], [[1.0]])


def test_from_coo_matches_the_packed_build_on_seeded_entries():
    # many duplicates per key, some summing to exactly zero
    rng = np.random.default_rng(29)
    for _ in range(30):
        rows, cols = rng.integers(1, 50, 2).tolist()
        size = int(rng.integers(0, 4000))
        case = (rows, cols, rng.integers(0, rows, size), rng.integers(0, cols, size),
                rng.choice([1.0, -1.0, 0.5, -0.5, 0.1, 0.0, 1e-300], size))
        got = SparseRealMatrix.from_coo(*case)
        assert oracles.csr_bytes(got) == oracles.csr_bytes(oracles.from_coo_packed(*case))
    m = SparseRealMatrix.from_coo(1, 2, [0, 0, 0], [1, 0, 1], [0.25, 2.0, -0.25])
    assert (m.indices.tolist(), m.data.tolist()) == ([0], [2.0])


def test_constructor_freezes_the_arrays_it_is_handed():
    indptr, indices, data = np.array([0, 1, 2]), np.array([1, 0]), np.array([2.0, 3.0])
    m = SparseRealMatrix(2, 2, indptr, indices, data)
    assert m.indptr is indptr and m.indices is indices and m.data is data
    assert not any(a.flags.writeable for a in (indptr, indices, data))
    # other dtypes and lists are converted
    m = SparseRealMatrix(2, 2, [0, 1, 2], np.array([1, 0], dtype=np.int32), [2, 3])
    assert (m.indices.dtype, m.data.dtype) == (np.int64, np.float64)
    assert not m.indices.flags.writeable


@pytest.mark.parametrize("rows, cols, row, col, value", [
    (5, 2**62, [4], [0], [1.0]),  # 5·2**62 positions: the key row·cols + col would wrap
    (5, 2**62, [4, 0], [3, 3], [1.0, 2.0]),
    (1, 2**63, [0], [0], [1.0]),  # cols itself is beyond int64
])
def test_from_coo_refuses_shapes_beyond_int64_keys(rows, cols, row, col, value):
    with pytest.raises(ValueError, match="int64"):
        SparseRealMatrix.from_coo(rows, cols, row, col, value)


def test_from_coo_beside_int64_limit_matches_dict_oracle_bitwise():
    # 2**62 positions fit, but six entries need three position bits beside
    # the keys, so the grouping falls back to a stable argsort
    big = 2**62 - 1
    case = (1, 2**62, [0] * 6, [big, 0, big, 5, 0, big],
            [1e16, 2.0, -1e16, 3.0, -2.0, 1.0])
    m = SparseRealMatrix.from_coo(*case)
    assert oracles.csr_bytes(m) == oracles.csr_bytes(oracles.from_coo(*case))
    # summed in input order (1e16 - 1e16) + 1.0; the reverse order gives 0.0
    assert (m.indices.tolist(), m.data.tolist()) == ([5, big], [3.0, 1.0])


def _grouped_by_oracle(keys):
    distinct = sorted(set(keys))
    pos = sorted(range(len(keys)), key=lambda k: (keys[k], k))
    return distinct, [distinct.index(keys[k]) for k in pos], pos


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=30), st.sampled_from([41, 2**40, 2**62, 2**63 - 1]))
def test_packed_unique_groups_keys_in_input_order(keys, size):
    # sizes near 2**63 leave no room for positions and take the argsort path
    got = packed_unique(np.array(keys, dtype=np.int64), size)
    assert [a.dtype for a in got] == [np.dtype(np.int64)] * 3
    assert tuple(a.tolist() for a in got) == _grouped_by_oracle(keys)


def test_packed_unique_refuses_keys_beyond_int64():
    with pytest.raises(ValueError, match="int64"):
        packed_unique(np.zeros(1, dtype=np.int64), 2**63)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=30), st.sampled_from([41, 2**40, 2**62, 2**63 - 1]),
       st.booleans())
def test_packed_sort_is_a_stable_argsort(keys, size, carried):
    # the carried entries ascend with the input position, as arc indices do
    # along a layout's tail slots
    low = np.cumsum(np.arange(len(keys)) % 3) if carried else None
    got_keys, got_low = packed_sort(np.array(keys, dtype=np.int64), size, low)
    order = np.argsort(np.array(keys, dtype=np.int64), kind="stable")
    assert got_keys.tolist() == sorted(keys)
    assert got_low.tolist() == (order if low is None else low[order]).tolist()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 12), max_size=20), st.integers(1, 10))
def test_row_blocks_cover_the_rows_in_whole_rows(lengths, size):
    ptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=ptr[1:])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparse, "_BLOCK", size)
        blocks = list(row_blocks(ptr))
    assert [r for block in blocks for r in range(*block)] == list(range(len(lengths)))
    for r0, r1 in blocks:
        # a block over its size is one row, and the next row did not fit
        assert r1 == r0 + 1 or ptr[r1] - ptr[r0] <= size
        assert r1 == len(lengths) or ptr[r1 + 1] - ptr[r0] > size


@settings(max_examples=100, deadline=None)
@given(csr_with_vector(), st.integers(1, 4))
def test_row_sums_and_checks_in_small_blocks_match_the_loop_oracle(case, size):
    m, _ = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparse, "_BLOCK", size)
        sums = m.row_sums()
        again = SparseRealMatrix(m.rows, m.cols, m.indptr, m.indices, m.data)
    assert sums.tobytes() == oracles.row_sums(m.indptr, m.data).tobytes()
    assert again == m


def test_check_finds_unsorted_columns_at_every_place_but_a_row_start():
    # columns 2, 0 across the row boundary are fine; within a row they are not
    SparseRealMatrix(2, 3, [0, 1, 3], [2, 0, 1], [1.0, 1.0, 1.0])
    SparseRealMatrix(3, 3, [0, 1, 1, 2], [2, 0], [1.0, 1.0])  # an empty row between
    for indptr, indices in (([0, 3], [0, 2, 1]), ([0, 1, 3], [2, 1, 1]), ([0, 2, 2], [1, 0])):
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseRealMatrix(len(indptr) - 1, 3, indptr, indices, [1.0] * len(indices))
