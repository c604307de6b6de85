"""Workload definitions and their seeded inputs.

A workload is a fixed set of operands plus the expressions one pass runs
over them. Inputs are uniformly placed distinct entries with values in
[-1, 1] (dense operands draw every element from the same range). Every
operand draws from its own generator, keyed by the seed and the operand's
name, so the same seed gives the same inputs whatever else changes.
"""

from __future__ import annotations

import hashlib
import os
import zlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Operand:
    name: str
    shape: tuple[int, ...]
    fmt: str  # csr | csc | dcsr | coo | dense
    nnz: int = 0  # stored entries of a sparse operand; unused for dense


@dataclass(frozen=True)
class Expression:
    text: str
    # Independent reference: the output is the sum of these einsum terms over
    # densified operands, each term given as (subscripts, operand names).
    reference: tuple[tuple[str, tuple[str, ...]], ...]
    # Counter law from the README checked against the engine's mults:
    # spmv | spmm | sddmm | spgemm, or None where no law is stated.
    law: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    operands: tuple[Operand, ...]
    expressions: tuple[Expression, ...]
    # Sparse inputs are read from Matrix Market files and every sparse result
    # is written back with write_matrix_market.
    matrix_market: bool = False


def rowwise_dense(tiny: bool = False) -> Workload:
    # Why: the engine's dense-output path does about 99% of this pass, with
    # no transposes and no workspace. These are the ROADMAP Baseline sizes
    # (SpMV and SpMM over one 2048x2048 CSR matrix with 40k entries), so the
    # >=20x executor target is read here, and the 40k-entry
    # build_from_entries makes set-up time visible.
    n, count, k = (64, 300, 4) if tiny else (2048, 40_000, 32)
    return Workload(
        name="rowwise-dense",
        why="dense-output SpMV and SpMM at the ROADMAP baseline sizes; execute dominates",
        operands=(
            Operand("A", (n, n), "csr", count),
            Operand("x", (n,), "dense"),
            Operand("B", (n, k), "dense"),
        ),
        expressions=(
            Expression("y(i) = A(i,j) * x(j)", (("ij,j->i", ("A", "x")),), "spmv"),
            Expression("C(i,k) = A(i,j) * B(j,k)", (("ij,jk->ik", ("A", "B")),), "spmm"),
        ),
    )


def sparse_out_io(tiny: bool = False) -> Workload:
    # Why: exercises what rowwise-dense never touches -- sparse outputs, a
    # workspace drain, a DCSR transpose inside execute, a union across
    # additive terms, and Matrix Market reads (set-up) and writes (pass).
    n, count, k = (48, 150, 4) if tiny else (1024, 8_000, 16)
    return Workload(
        name="sparse-out-io",
        why="SpGEMM, SDDMM and a mixed-format add with sparse outputs, read from and written to Matrix Market",
        operands=(
            Operand("A", (n, n), "csr", count),
            Operand("B", (n, n), "csr", count),
            Operand("D", (n, n), "dcsr", count),
            Operand("P", (n, k), "dense"),
            Operand("Q", (k, n), "dense"),
        ),
        expressions=(
            Expression("C(i,k) = A(i,j) * B(j,k)", (("ij,jk->ik", ("A", "B")),), "spgemm"),
            Expression(
                "S(i,j) = A(i,j) * P(i,k) * Q(k,j)", (("ij,ik,kj->ij", ("A", "P", "Q")),), "sddmm"
            ),
            Expression(
                "E(i,k) = D(k,i) + A(i,j) * B(j,k)",
                (("ki->ik", ("D",)), ("ij,jk->ik", ("A", "B"))),
            ),
        ),
        matrix_market=True,
    )


_CHAIN_VARS = "abcdefgh"


def _chain(out: str, prefix: str) -> Expression:
    terms = [f"{prefix}{t}({_CHAIN_VARS[t]},{_CHAIN_VARS[t + 1]})" for t in range(7)]
    subscripts = ",".join(_CHAIN_VARS[t : t + 2] for t in range(7)) + "->ah"
    names = tuple(f"{prefix}{t}" for t in range(7))
    return Expression(f"{out}(a,h) = " + " * ".join(terms), ((subscripts, names),))


def plan_heavy(tiny: bool = False) -> Workload:
    # Why: planning and the all-dense runtime path set this pass's time.
    # schedule() on the two 8-index chains and the oracle path of the dense
    # matmul each cost more than executing the chains, so an executor change
    # should leave this workload unchanged while a planning change shows.
    n, count, m = 16, 20, (6 if tiny else 24)
    cycle = ("csr", "dcsr", "coo", "csc")
    operands = [Operand(f"T{t}", (n, n), "csr", count) for t in range(7)]
    operands += [Operand(f"U{t}", (n, n), cycle[t % 4], count) for t in range(7)]
    operands += [Operand("F", (m, m), "dense"), Operand("G", (m, m), "dense")]
    return Workload(
        name="plan-heavy",
        why="two 8-index chains and an all-dense matmul: planning and the dense runtime path dominate",
        operands=tuple(operands),
        expressions=(
            _chain("Y", "T"),
            _chain("Z", "U"),
            Expression("M(i,k) = F(i,j) * G(j,k)", (("ij,jk->ik", ("F", "G")),)),
        ),
    )


def csr_transpose(tiny: bool = False) -> Workload:
    # Why: the only workload whose time is set by a transpose decision. The
    # scheduler re-stores a CSR operand under swapped modes; the copy keeps a
    # dense level and grows from 1,000 to about 64k stored entries, and the
    # output becomes dense. Without it the convert/transpose layer is at most
    # about 2% of any workload and the densifying transpose would not show.
    n, count = (32, 60) if tiny else (256, 1_000)
    return Workload(
        name="csr-transpose",
        why="a mixed add whose CSR transpose densifies; the transpose decision sets the time",
        operands=(
            Operand("A", (n, n), "csr", count),
            Operand("B", (n, n), "csr", count),
            Operand("D", (n, n), "csr", count),
        ),
        expressions=(
            Expression(
                "E(i,k) = D(k,i) + A(i,j) * B(j,k)",
                (("ki->ik", ("D",)), ("ij,jk->ik", ("A", "B"))),
            ),
        ),
    )


WORKLOADS = {
    w(False).name: w for w in (rowwise_dense, sparse_out_io, plan_heavy, csr_transpose)
}


@dataclass
class Inputs:
    """Generated operand data, before the program sees any of it."""

    coords: dict[str, np.ndarray]  # sparse operands: (nnz, order) int64
    values: dict[str, np.ndarray]  # sparse: per-entry values; dense: the array
    entries: dict[str, list]  # sparse operands as build_from_entries pairs
    mtx_paths: dict[str, str]  # sparse operands of a Matrix Market workload
    digests: dict[str, str]

    def dense(self, op: Operand) -> np.ndarray:
        """The operand as a dense array, built from the generated data only."""
        if op.fmt == "dense":
            return self.values[op.name]
        out = np.zeros(op.shape)
        out[tuple(self.coords[op.name].T)] = self.values[op.name]
        return out


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _write_mtx(path: str, shape, coords: np.ndarray, vals: np.ndarray) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{shape[0]} {shape[1]} {len(vals)}\n")
        for (i, j), v in zip(coords.tolist(), vals.tolist()):
            fh.write(f"{i + 1} {j + 1} {v!r}\n")


def generate(w: Workload, seed: int, workdir: str) -> Inputs:
    """Draw every operand of ``w`` from ``seed``; write Matrix Market inputs to ``workdir``."""
    inputs = Inputs({}, {}, {}, {}, {})
    for op in w.operands:
        rng = _rng(seed, op.name)
        h = hashlib.sha256(f"{op.name}{op.shape}{op.fmt}".encode())
        if op.fmt == "dense":
            arr = rng.uniform(-1.0, 1.0, size=op.shape)
            inputs.values[op.name] = arr
            h.update(arr.tobytes())
        else:
            size = int(np.prod(op.shape))
            flat = np.sort(rng.choice(size, size=op.nnz, replace=False))
            coords = np.stack(np.unravel_index(flat, op.shape), axis=1).astype(np.int64)
            vals = rng.uniform(-1.0, 1.0, size=op.nnz)
            inputs.coords[op.name] = coords
            inputs.values[op.name] = vals
            inputs.entries[op.name] = list(zip(map(tuple, coords.tolist()), vals.tolist()))
            h.update(coords.tobytes())
            h.update(vals.tobytes())
            if w.matrix_market:
                path = os.path.join(workdir, f"{op.name}.mtx")
                _write_mtx(path, op.shape, coords, vals)
                with open(path, "rb") as fh:
                    h.update(fh.read())
                inputs.mtx_paths[op.name] = path
        inputs.digests[op.name] = h.hexdigest()
    return inputs
