import collections

import numpy as np
import pytest

import sparsetc as st
from sparsetc import engine
from sparsetc.tensor import stored_entries

from conftest import random_expression, random_tensor


def test_sddmm_worked_example():
    A = st.build_from_entries((2, 2), st.csr(2, 2), [((0, 1), 2.0)], name="A")
    B = st.from_dense([[1.0, 2.0], [3.0, 4.0]], name="B")
    C = st.from_dense([[5.0, 6.0], [7.0, 8.0]], name="C")
    e = st.parse("D(i,j) = A(i,j) * B(i,k) * C(k,j)", {"A": A, "B": B, "C": C})
    t, c = st.execute(st.schedule(e))
    assert st.to_dense(t)[0, 1] == 44.0
    assert c.scalar_mults == 3


def test_spmv_worked_example():
    A = st.build_from_entries((2, 2), st.csr(2, 2), [((0, 0), 1.0), ((1, 1), 2.0)], name="A")
    x = st.from_dense([3.0, 4.0], name="x")
    e = st.parse("y(i) = A(i,j) * x(j)", {"A": A, "x": x})
    t, c = st.execute(st.schedule(e))
    assert st.to_dense(t).tolist() == [3.0, 8.0]
    assert c.scalar_mults == 2 == st.nnz(A)


def test_spgemm_identity():
    n = 4
    I = st.build_from_entries((n, n), st.csr(n, n), [((i, i), 1.0) for i in range(n)], name="I")
    r = np.random.default_rng(0)
    M = random_tensor(r, (n, n), "csr", 0.5, "M")
    e = st.parse("C(i,k) = I(i,j) * M(j,k)", {"I": I, "M": M})
    t, _ = st.execute(st.schedule(e))
    assert np.array_equal(st.to_dense(t), st.to_dense(M))


def test_addmul_mixed_format_instance():
    r = np.random.default_rng(1)
    A = random_tensor(r, (5, 4), "csr", 0.4, "A")
    B = random_tensor(r, (4, 6), "csr", 0.4, "B")
    C = random_tensor(r, (5, 6), "dcsr", 0.3, "C")
    e = st.parse("D(i,j) = A(i,k) * B(k,j) + C(i,j)", {"A": A, "B": B, "C": C})
    t, _ = st.execute(st.schedule(e))
    assert t.format.name() == "csr"
    assert np.array_equal(st.to_dense(t), st.eval_dense(e))


def test_output_satisfies_storage_invariants():
    for seed in range(30):
        e = random_expression(np.random.default_rng(100 + seed), extent_cap=6)
        t, _ = st.execute(st.schedule(e))
        t.storage.validate()


def test_counter_law_spmv(rng):
    for _ in range(5):
        A = random_tensor(rng, (9, 7), "csr", 0.35, "A")
        x = st.from_dense(rng.uniform(-1, 1, 7), name="x")
        e = st.parse("y(i) = A(i,j) * x(j)", {"A": A, "x": x})
        _, c = st.execute(st.schedule(e))
        assert c.scalar_mults == st.nnz(A)


def test_counter_law_spmm(rng):
    for _ in range(5):
        k = int(rng.integers(1, 9))
        A = random_tensor(rng, (8, 6), "csr", 0.4, "A")
        B = st.from_dense(rng.uniform(-1, 1, (6, k)), name="B")
        e = st.parse("C(i,k) = A(i,j) * B(j,k)", {"A": A, "B": B})
        _, c = st.execute(st.schedule(e))
        assert c.scalar_mults == st.nnz(A) * k


def test_counter_law_gustavson(rng):
    for _ in range(5):
        A = random_tensor(rng, (7, 6), "csr", 0.4, "A")
        B = random_tensor(rng, (6, 8), "csr", 0.4, "B")
        e = st.parse("C(i,k) = A(i,j) * B(j,k)", {"A": A, "B": B})
        _, c = st.execute(st.schedule(e))
        bc, _ = stored_entries(B)
        rows = collections.Counter(bc[:, 0].tolist())
        ac, _ = stored_entries(A)
        assert c.scalar_mults == sum(rows[j] for j in ac[:, 1].tolist())


def test_sddmm_fusion_bound(rng):
    k = 5
    A = random_tensor(rng, (10, 12), "csr", 0.2, "A")
    B = st.from_dense(rng.uniform(-1, 1, (10, k)), name="B")
    C = st.from_dense(rng.uniform(-1, 1, (k, 12)), name="C")
    e = st.parse("D(i,j) = A(i,j) * B(i,k) * C(k,j)", {"A": A, "B": B, "C": C})
    _, c = st.execute(st.schedule(e))
    assert c.scalar_mults == st.nnz(A) * (k + 1)
    assert c.scalar_mults <= st.nnz(A) * (k + 1) < 10 * 12 * k


def test_workspace_drains_sorted_and_appends_in_order():
    ws = st.Workspace()
    counter = st.OpCounter()
    for key, v in [((3,), 1.0), ((1,), 2.0), ((1,), 0.5), ((2,), -1.0)]:
        ws.accumulate(key, v, counter)
    drained = list(ws.drain())
    assert [k for k, _ in drained] == [(1,), (2,), (3,)]
    assert drained[0][1] == 2.5
    assert counter.scalar_adds == 4


def test_engine_union_of_sparse_addends(rng):
    A = random_tensor(rng, (6, 5), "dcsr", 0.3, "A")
    B = random_tensor(rng, (6, 5), "coo", 0.3, "B")
    e = st.parse("D(i,j) = A(i,j) + B(i,j)", {"A": A, "B": B})
    t, _ = st.execute(st.schedule(e))
    assert np.array_equal(st.to_dense(t), st.eval_dense(e))


def test_engine_handles_transposed_inputs(rng):
    A = random_tensor(rng, (6, 5), "csc", 0.4, "A")
    B = random_tensor(rng, (5, 7), "csr", 0.4, "B")
    e = st.parse("C(i,k) = A(i,j) * B(j,k)", {"A": A, "B": B})
    t, _ = st.execute(st.schedule(e))
    assert np.array_equal(st.to_dense(t), st.eval_dense(e))


@pytest.mark.parametrize(
    "text, transposed",
    [
        ("y(i) = A(i,j) * A(j,i)", 1),
        # the inner-product order (i, k, j) reads both accesses in storage order
        ("C(i,k) = A(i,j) * A(k,j)", 0),
    ],
)
def test_aliased_accesses_read_in_their_planned_formats(monkeypatch, text, transposed):
    r = np.random.default_rng(11)
    A = random_tensor(r, (7, 7), "csr", 0.4, "A", integer=True)
    A2 = random_tensor(r, (7, 7), "csr", 0.4, "A", integer=True)
    e = st.parse(text, {"A": A})
    s = st.schedule(e)
    moved = [f for a, f in zip(e.accesses, s.access_formats) if f != a.tensor.format]
    assert len(moved) == transposed

    converted = []
    real_convert = engine.convert

    def recording_convert(t, fmt):
        converted.append(fmt)
        return real_convert(t, fmt)

    monkeypatch.setattr(engine, "convert", recording_convert)
    for bindings, bound in ((None, A), ({"A": A2}, A2)):
        t, _ = st.execute(s, bindings)
        assert np.array_equal(st.to_dense(t), st.eval_dense(e, {"A": bound}))
    assert converted == moved * 2


def test_engine_three_level_contraction(rng):
    fmt = st.TensorFormat(
        (4, 3, 5),
        (0, 1, 2),
        (st.LevelFormat.DENSE, st.LevelFormat.COMPRESSED, st.LevelFormat.COMPRESSED),
    )
    size = 4 * 3 * 5
    flat = rng.choice(size, 14, replace=False)
    coords = np.stack(np.unravel_index(flat, (4, 3, 5)), axis=1)
    entries = [(tuple(map(int, c)), float(rng.uniform(-1, 1))) for c in coords]
    T = st.build_from_entries((4, 3, 5), fmt, entries, name="T")
    x = st.from_dense(rng.uniform(-1, 1, 5), name="x")
    e = st.parse("M(i,j) = T(i,j,k) * x(k)", {"T": T, "x": x})
    t, _ = st.execute(st.schedule(e))
    assert np.allclose(st.to_dense(t), st.eval_dense(e), atol=1e-12)


def test_run_dispatches_dense_to_oracle():
    A = st.from_dense([[1.0, 2.0], [3.0, 4.0]], name="A")
    B = st.from_dense([[5.0, 6.0], [7.0, 8.0]], name="B")
    e = st.parse("C(i,k) = A(i,j) * B(j,k)", {"A": A, "B": B})
    t, counter, report = st.run_with_report(e)
    assert report["path"] == "dense"
    assert counter is None
    assert np.array_equal(st.to_dense(t), np.array([[19.0, 22.0], [43.0, 50.0]]))


def test_run_sparse_path_reports_schedule(rng):
    A = random_tensor(rng, (5, 5), "csr", 0.4, "A")
    B = st.from_dense(rng.uniform(-1, 1, (5, 3)), name="B")
    e = st.parse("C(i,k) = A(i,j) * B(j,k)", {"A": A, "B": B})
    t, counter, report = st.run_with_report(e)
    assert report["path"] == "sparse"
    assert report["schedule"]["loop_order"] == ["i", "j", "k"]
    assert counter.scalar_mults == st.nnz(A) * 3


def test_rebinding_same_format(rng):
    A1 = random_tensor(rng, (5, 5), "csr", 0.4, "A")
    A2 = random_tensor(rng, (5, 5), "csr", 0.4, "A")
    x = st.from_dense(rng.uniform(-1, 1, 5), name="x")
    e = st.parse("y(i) = A(i,j) * x(j)", {"A": A1, "x": x})
    s = st.schedule(e)
    t2, _ = st.execute(s, bindings={"A": A2})
    e2 = st.parse("y(i) = A(i,j) * x(j)", {"A": A2, "x": x})
    assert np.array_equal(st.to_dense(t2), st.eval_dense(e2))


def test_rebinding_with_wrong_format_rejected(rng):
    A = random_tensor(rng, (5, 5), "csr", 0.4, "A")
    x = st.from_dense(rng.uniform(-1, 1, 5), name="x")
    e = st.parse("y(i) = A(i,j) * x(j)", {"A": A, "x": x})
    s = st.schedule(e)
    bad = st.convert(A, st.dcsr(5, 5))
    with pytest.raises(st.ShapeError):
        st.execute(s, bindings={"A": bad})


def test_arithmetic_zeros_are_kept(rng):
    A = st.build_from_entries((2, 2), st.csr(2, 2), [((0, 0), 1.0)], name="A")
    B = st.build_from_entries((2, 2), st.csr(2, 2), [((0, 0), 0.0)], name="B")
    e = st.parse("C(i,j) = A(i,j) * B(i,j)", {"A": A, "B": B})
    t, _ = st.execute(st.schedule(e))
    assert st.nnz(t) == 1
    assert st.to_dense(t)[0, 0] == 0.0


def test_differential_small_fuzz():
    exact = 0
    for seed in range(150):
        rng = np.random.default_rng(40_000 + seed)
        integer = bool(rng.integers(0, 2))
        e = random_expression(rng, extent_cap=6, integer=integer)
        t, _ = st.execute(st.schedule(e))
        got, want = st.to_dense(t), st.eval_dense(e)
        if integer:
            assert np.array_equal(got, want), f"seed {seed}"
            exact += 1
        else:
            assert np.abs(got - want).max() <= 1e-10, f"seed {seed}"
    assert exact > 20


def test_vector_kinds_combinations(rng):
    for kind_a in ("dense", "compressed", "coordinate"):
        for kind_b in ("dense", "compressed", "coordinate"):
            a = random_tensor(rng, (7,), kind_a, 0.5, "a")
            b = random_tensor(rng, (7,), kind_b, 0.5, "b")
            for src in ("c(i) = a(i) * b(i)", "c(i) = a(i) + b(i)"):
                e = st.parse(src, {"a": a, "b": b})
                t, _ = st.execute(st.schedule(e))
                assert np.array_equal(st.to_dense(t), st.eval_dense(e)), (kind_a, kind_b, src)
