"""Correctness gate, independent of the program under test.

References come from ``np.einsum`` over operands densified from the
generated data, never from ``sparsetc.oracle`` (the runtime path that
``plan-heavy`` measures) or from the program's own conversion helpers.
Engine outputs are densified here straight from their storage arrays.
"""

from __future__ import annotations

import hashlib

import numpy as np

from workloads import Expression, Inputs, Workload

# Outputs are compared with np.allclose at these tolerances. Reference and
# engine sum in different orders, so the last bits may differ.
RTOL = 1e-9
ATOL = 1e-12


def storage_dense(t) -> np.ndarray:
    """Densify a dense/compressed-level tensor from its storage arrays."""
    st = t.storage
    fmt = st.format
    parents = np.zeros(1, dtype=np.int64)  # storage position of each path
    mode_coords: list[np.ndarray] = []
    for k, kind in enumerate(fmt.levels):
        data = st.levels[k]
        if kind.value == "dense":
            extent = data.extent
            mode_coords = [np.repeat(c, extent) for c in mode_coords]
            mode_coords.append(np.tile(np.arange(extent), len(parents)))
            parents = (parents[:, None] * extent + np.arange(extent)).reshape(-1)
        elif kind.value == "compressed":
            counts = data.pos[parents + 1] - data.pos[parents]
            starts = np.repeat(data.pos[parents], counts)
            offsets = np.arange(len(starts)) - np.repeat(np.cumsum(counts) - counts, counts)
            mode_coords = [np.repeat(c, counts) for c in mode_coords]
            parents = starts + offsets
            mode_coords.append(data.crd[parents])
        else:
            raise ValueError(f"cannot densify level kind {kind.value}")
    out = np.zeros(t.shape)
    logical = [None] * fmt.order
    for k, dim in enumerate(fmt.mode_ordering):
        logical[dim] = mode_coords[k]
    out[tuple(logical)] = st.values[parents]
    return out


def storage_signature(t) -> tuple:
    """Every storage array of ``t`` as bytes, for bit-identity checks."""
    parts = [t.format.name(), t.storage.values.tobytes()]
    for data in t.storage.levels:
        for attr in ("pos", "crd"):
            if hasattr(data, attr):
                parts.append(getattr(data, attr).tobytes())
    return tuple(parts)


def storage_bytes(t) -> int:
    """Bytes held by the storage arrays of ``t`` (computed, not measured)."""
    total = t.storage.values.nbytes
    for data in t.storage.levels:
        for attr in ("pos", "crd"):
            if hasattr(data, attr):
                total += getattr(data, attr).nbytes
    return total


def reference(e: Expression, w: Workload, inputs: Inputs) -> np.ndarray:
    ops = {op.name: op for op in w.operands}
    total = None
    for subscripts, names in e.reference:
        term = np.einsum(subscripts, *(inputs.dense(ops[n]) for n in names), optimize=True)
        total = term if total is None else total + term
    return total


def expected_mults(e: Expression, w: Workload, inputs: Inputs) -> int | None:
    """Scalar multiplies the README's counter law fixes for ``e``, if any."""
    if e.law is None:
        return None
    names = e.reference[0][1]
    shape = {op.name: op.shape for op in w.operands}
    nnz_a = len(inputs.values[names[0]])
    if e.law == "spmv":
        return nnz_a
    if e.law == "spmm":
        return nnz_a * shape[names[1]][1]
    if e.law == "sddmm":
        return nnz_a * (shape[names[1]][1] + 1)
    if e.law == "spgemm":
        a, b = inputs.coords[names[0]], inputs.coords[names[1]]
        n = shape[names[0]][1]
        return int(np.bincount(a[:, 1], minlength=n) @ np.bincount(b[:, 0], minlength=n))
    raise ValueError(f"unknown counter law {e.law!r}")


def read_mtx_dense(path: str) -> np.ndarray:
    """Parse a written Matrix Market coordinate file without the program."""
    with open(path, encoding="ascii") as fh:
        if not fh.readline().startswith("%%MatrixMarket matrix coordinate real general"):
            raise ValueError("unexpected Matrix Market header")
        rows, cols, count = (int(x) for x in fh.readline().split())
        body = np.loadtxt(fh, ndmin=2) if count else np.zeros((0, 3))
    if len(body) != count:
        raise ValueError(f"header says {count} entries, file has {len(body)}")
    out = np.zeros((rows, cols))
    out[body[:, 0].astype(np.int64) - 1, body[:, 1].astype(np.int64) - 1] = body[:, 2]
    return out


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Gate:
    """Checks every evaluation of one workload; counts what fails."""

    def __init__(self, w: Workload, inputs: Inputs):
        self.refs = [reference(e, w, inputs) for e in w.expressions]
        self.laws = [expected_mults(e, w, inputs) for e in w.expressions]
        self.first: list[tuple | None] = [None] * len(w.expressions)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def problems_of(self, i: int, ev) -> list[str]:
        """Why evaluation ``ev`` of expression ``i`` fails; empty when it passes."""
        if ev.error is not None:
            return [f"raised {ev.error}"]
        out = []
        dense = storage_dense(ev.out)
        if dense.shape != self.refs[i].shape or not np.allclose(
            dense, self.refs[i], rtol=RTOL, atol=ATOL
        ):
            out.append("output differs from the einsum reference")
        mults = None if ev.counter is None else ev.counter.scalar_mults
        if self.laws[i] is not None and mults != self.laws[i]:
            out.append(f"scalar_mults {mults} != counter law {self.laws[i]}")
        signature = (
            storage_signature(ev.out),
            None if ev.counter is None else tuple(ev.counter.as_dict().items()),
            None if ev.written is None else _file_digest(ev.written),
        )
        if self.first[i] is None:
            self.first[i] = signature
            if ev.written is not None and not np.allclose(
                read_mtx_dense(ev.written), self.refs[i], rtol=RTOL, atol=ATOL
            ):
                out.append("written Matrix Market file differs from the reference")
        elif signature != self.first[i]:
            out.append("not bit-identical to the first pass")
        return out

    def check(self, i: int, ev) -> bool:
        self.attempted += 1
        try:
            found = self.problems_of(i, ev)
        except Exception as exc:  # an output the gate cannot read fails the evaluation
            found = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if found:
            self.failed += 1
            self.problems.extend(f"expression {i}: {p}" for p in found)
        return not found
