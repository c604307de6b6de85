import pytest

import sparsetc as st
from sparsetc.formats import LevelFormat, TensorFormat


def test_named_matrix_formats():
    f = st.csr(3, 4)
    assert f.mode_ordering == (0, 1)
    assert f.levels == (LevelFormat.DENSE, LevelFormat.COMPRESSED)

    f = st.csc(3, 4)
    assert f.mode_ordering == (1, 0)
    assert f.levels == (LevelFormat.DENSE, LevelFormat.COMPRESSED)

    f = st.dcsr(3, 4)
    assert f.levels == (LevelFormat.COMPRESSED, LevelFormat.COMPRESSED)

    f = st.coo(3, 4)
    assert f.levels == (LevelFormat.COORDINATE, LevelFormat.COORDINATE)

    for name in ("csr", "csc", "dcsr", "coo", "dense"):
        assert st.format_by_name(name, (3, 4)).name() == name


def test_level_extent_follows_mode_ordering():
    f = st.csc(3, 4)
    assert f.level_extent(0) == 4  # columns stored first
    assert f.level_extent(1) == 3


def test_sparse_dim_query():
    assert not st.csr(2, 2).dim_is_sparse(0)
    assert st.csr(2, 2).dim_is_sparse(1)
    assert st.csc(2, 2).dim_is_sparse(0)
    assert not st.csc(2, 2).dim_is_sparse(1)
    for d in (0, 1):
        assert st.coo(2, 2).dim_is_sparse(d)
        assert not st.dense_format((2, 2)).dim_is_sparse(d)


def test_mixed_coordinate_rejected():
    with pytest.raises(ValueError):
        TensorFormat((2, 2), (0, 1), (LevelFormat.COORDINATE, LevelFormat.DENSE))
    with pytest.raises(ValueError):
        TensorFormat((2, 2), (0, 1), (LevelFormat.DENSE, LevelFormat.COORDINATE))
    with pytest.raises(ValueError):
        TensorFormat((2, 2, 2), (0, 1, 2), (LevelFormat.COORDINATE,) * 2 + (LevelFormat.COMPRESSED,))


def test_bad_formats_rejected():
    with pytest.raises(ValueError):
        TensorFormat((2, 2), (0, 0), (LevelFormat.DENSE, LevelFormat.DENSE))
    with pytest.raises(ValueError):
        TensorFormat((2,), (0, 1), (LevelFormat.DENSE, LevelFormat.DENSE))
    with pytest.raises(ValueError):
        TensorFormat((0, 2), (0, 1), (LevelFormat.DENSE, LevelFormat.DENSE))
    with pytest.raises(ValueError):
        st.format_by_name("ellpack", (2, 2))


def test_with_mode_ordering_carries_per_dim_kinds():
    f = st.csr(3, 4)  # rows dense, columns compressed
    g = f.with_mode_ordering((1, 0))
    assert g.levels == (LevelFormat.COMPRESSED, LevelFormat.DENSE)
    assert g.level_extent(0) == 4
