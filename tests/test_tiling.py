import numpy as np
import pytest

import sparsetc as st
from sparsetc import engine
from sparsetc.tiling import expanded_loops

from conftest import random_expression, random_tensor


def names(vs):
    return sorted(v.name for v in vs)


def test_spmm_tiles_only_k():
    r = np.random.default_rng(0)
    A = random_tensor(r, (6, 5), "csr", 0.4, "A")
    B = st.from_dense(r.uniform(-1, 1, (5, 7)), name="B")
    e = st.parse("C(i,k) = A(i,j) * B(j,k)", {"A": A, "B": B})
    s = st.tile(e, st.schedule(e), 4)
    assert names(s.tiles) == ["k"]


def test_dense_matmul_tiles_everything():
    b = {n: st.from_dense(np.ones((6, 6)), name=n) for n in "AB"}
    e = st.parse("C(i,k) = A(i,j) * B(j,k)", b)
    s = st.tile(e, st.schedule(e), 4)
    assert names(s.tiles) == ["i", "j", "k"]


def test_sddmm_tiles_only_k():
    r = np.random.default_rng(1)
    A = random_tensor(r, (6, 6), "csr", 0.3, "A")
    B = st.from_dense(r.uniform(-1, 1, (6, 4)), name="B")
    C = st.from_dense(r.uniform(-1, 1, (4, 6)), name="C")
    e = st.parse("D(i,j) = A(i,j) * B(i,k) * C(k,j)", {"A": A, "B": B, "C": C})
    s = st.tile(e, st.schedule(e), 4)
    assert names(s.tiles) == ["k"]


def test_spgemm_tiles_nothing():
    r = np.random.default_rng(2)
    A = random_tensor(r, (5, 5), "csr", 0.3, "A")
    B = random_tensor(r, (5, 5), "csr", 0.3, "B")
    e = st.parse("C(i,k) = A(i,j) * B(j,k)", {"A": A, "B": B})
    assert st.tile(e, st.schedule(e), 4).tiles == ()


def test_elementwise_no_strict_subset_no_tiles():
    b = {n: st.from_dense(np.ones((6, 6)), name=n) for n in "AB"}
    e = st.parse("C(i,j) = A(i,j) + B(i,j)", b)
    assert st.tile(e, st.schedule(e), 4).tiles == ()


def test_tile_size_validation():
    b = {n: st.from_dense(np.ones((4, 4)), name=n) for n in "AB"}
    e = st.parse("C(i,k) = A(i,j) * B(j,k)", b)
    with pytest.raises(ValueError):
        st.tile(e, st.schedule(e), 0)


def test_expanded_loops_structure():
    b = {n: st.from_dense(np.ones((6, 6)), name=n) for n in "AB"}
    e = st.parse("C(i,k) = A(i,j) * B(j,k)", b)
    s = st.tile(e, st.schedule(e), 4)
    steps = expanded_loops(s)
    # output blocks hoisted in pre-tiling order; the reduction split stays put
    desc = [(step.var.name, step.role) for step in steps]
    assert desc == [
        ("i", "block"),
        ("k", "block"),
        ("i", "intra"),
        ("j", "block"),
        ("j", "intra"),
        ("k", "intra"),
    ]


def test_untiled_expanded_loops_are_plain():
    r = np.random.default_rng(3)
    A = random_tensor(r, (5, 5), "csr", 0.3, "A")
    B = random_tensor(r, (5, 5), "csr", 0.3, "B")
    e = st.parse("C(i,k) = A(i,j) * B(j,k)", {"A": A, "B": B})
    s = st.schedule(e)
    assert all(step.role == "full" for step in expanded_loops(s))


def test_iteration_count_conservation():
    extent, size = 13, 4
    blocks = [(lo, min(lo + size, extent)) for lo in range(0, extent, size)]
    assert sum(hi - lo for lo, hi in blocks) == extent
    assert len(blocks) == -(-extent // size)


@pytest.mark.parametrize("tile_size", [1, 3, 64, 1000])
def test_neutrality_on_random_instances(tile_size):
    for seed in range(25):
        rng = np.random.default_rng(9_000 + seed)
        e = random_expression(rng, extent_cap=16)
        s = st.schedule(e)
        tiled = st.tile(e, s, tile_size)
        t0, _ = st.execute(s)
        t1, _ = st.execute(tiled)
        assert np.array_equal(st.to_dense(t0), st.to_dense(t1)), (
            f"seed {seed} tile {tile_size}"
        )


def test_counters_unchanged_by_tiling_for_spmm():
    r = np.random.default_rng(5)
    A = random_tensor(r, (8, 8), "csr", 0.4, "A")
    B = st.from_dense(r.uniform(-1, 1, (8, 6)), name="B")
    e = st.parse("C(i,k) = A(i,j) * B(j,k)", {"A": A, "B": B})
    s = st.schedule(e)
    _, c0 = st.execute(s)
    _, c1 = st.execute(st.tile(e, s, 3))
    assert c0.scalar_mults == c1.scalar_mults
    assert c0.scalar_adds == c1.scalar_adds


@pytest.mark.parametrize(
    "text, fmts, workspace_dims",
    [
        ("Out(j,i) = T0(i) + T1(j,i)", {"T0": "dense", "T1": "csc"}, 0),
        ("C(i,k) = A(i,j) * B(j,k)", {"A": "csr", "B": "csr"}, 1),
    ],
)
def test_sparse_output_loops_are_not_tiled(monkeypatch, text, fmts, workspace_dims):
    # A hoisted block loop over a compressed output level would revisit it
    # once per block, so execution could no longer follow the workspace plan.
    r = np.random.default_rng(4)
    bound = {}
    for name, fmt in fmts.items():
        shape = (20,) if fmt == "dense" else (20, 20)
        bound[name] = random_tensor(r, shape, fmt, 0.2, name, integer=True)
    e = st.parse(text, bound)
    s = st.schedule(e)
    assert (0 if s.workspace is None else s.workspace.dimensions) == workspace_dims
    assert st.tileable_vars(e, s) == ()
    tiled = st.tile(e, s, 4)

    key_widths = set()

    class RecordingWorkspace(engine.Workspace):
        def accumulate(self, key, value, counter):
            key_widths.add(len(key))
            super().accumulate(key, value, counter)

    monkeypatch.setattr(engine, "Workspace", RecordingWorkspace)
    t, _ = st.execute(tiled)
    assert np.array_equal(st.to_dense(t), st.eval_dense(e))
    assert key_widths == {workspace_dims}
