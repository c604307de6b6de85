"""Tensor values and their physical storage.

The logical tensor (name, shape, element type) is split from its physical
storage: one index structure per level plus a flat array of stored values.
Stored values include explicit zeros; ``nnz`` counts stored values, not
mathematical nonzeros. All scalars are float64 and tensors are immutable
once constructed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .formats import LevelFormat, TensorFormat, dense_format


class ShapeError(ValueError):
    """Shapes or extents are inconsistent."""


@dataclass(frozen=True)
class DenseLevel:
    """All slots stored; contributes only its extent to addressing."""

    extent: int


@dataclass(frozen=True)
class CompressedLevel:
    """Per-parent segments of sorted coordinates.

    ``pos`` has one entry per parent position plus one; segment ``p`` is
    ``crd[pos[p]:pos[p+1]]`` and is strictly increasing.
    """

    pos: np.ndarray
    crd: np.ndarray


@dataclass(frozen=True)
class CoordinateLevel:
    """One column of the aligned coordinate table of an all-coordinate tensor."""

    crd: np.ndarray


LevelData = DenseLevel | CompressedLevel | CoordinateLevel


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TensorStorage:
    """Physical storage: per-level index data plus the stored values."""

    format: TensorFormat
    levels: tuple[LevelData, ...]
    values: np.ndarray

    def validate(self) -> None:
        fmt = self.format
        if len(self.levels) != fmt.order:
            raise ValueError("level data arity does not match format")
        if self.values.dtype != np.float64:
            raise ValueError("values must be float64")
        n_positions = 1
        for k, (kind, data) in enumerate(zip(fmt.levels, self.levels)):
            extent = fmt.level_extent(k)
            if kind is LevelFormat.DENSE:
                if not isinstance(data, DenseLevel) or data.extent != extent:
                    raise ValueError(f"level {k}: bad dense level data")
                n_positions *= extent
            elif kind is LevelFormat.COMPRESSED:
                if not isinstance(data, CompressedLevel):
                    raise ValueError(f"level {k}: expected compressed level data")
                pos, crd = data.pos, data.crd
                if len(pos) != n_positions + 1 or pos[0] != 0 or pos[-1] != len(crd):
                    raise ValueError(f"level {k}: bad positions array")
                if np.any(np.diff(pos) < 0):
                    raise ValueError(f"level {k}: positions must be monotone")
                # Entry e is bad if out of range or not above its predecessor
                # within the same segment.
                bad = (crd < 0) | (crd >= extent)
                starts = np.zeros(len(crd), dtype=bool)
                starts[pos[:-1][pos[:-1] < len(crd)]] = True
                bad[1:] |= (np.diff(crd) <= 0) & ~starts[1:]
                if bad.any():
                    p = int(np.searchsorted(pos, np.argmax(bad), side="right")) - 1
                    raise ValueError(f"level {k}: segment {p} not strictly increasing in range")
                n_positions = len(crd)
            else:  # coordinate
                if not isinstance(data, CoordinateLevel):
                    raise ValueError(f"level {k}: expected coordinate level data")
                if len(data.crd) and (data.crd.min() < 0 or data.crd.max() >= extent):
                    raise ValueError(f"level {k}: coordinate out of range")
                n_positions = len(data.crd)
        if fmt.levels and fmt.levels[0] is LevelFormat.COORDINATE:
            table = np.stack([lv.crd for lv in self.levels], axis=1) if fmt.order else None
            if len(table):
                order = np.lexsort(tuple(table[:, k] for k in reversed(range(fmt.order))))
                if not np.array_equal(order, np.arange(len(table))):
                    raise ValueError("coordinate tuples must be lexicographically sorted")
                if fmt.order and np.any(np.all(np.diff(table, axis=0) == 0, axis=1)):
                    raise ValueError("coordinate tuples must be duplicate-free")
            n_positions = len(self.levels[0].crd)
        if len(self.values) != n_positions:
            raise ValueError(
                f"values length {len(self.values)} != stored coordinate paths {n_positions}"
            )


@dataclass(frozen=True)
class Tensor:
    """An immutable named tensor over float64 values."""

    name: str
    shape: tuple[int, ...]
    storage: TensorStorage

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(self.shape))
        if self.storage.format.shape != self.shape:
            raise ShapeError(
                f"storage format shape {self.storage.format.shape} != tensor shape {self.shape}"
            )

    @property
    def format(self) -> TensorFormat:
        return self.storage.format

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float64)

    @property
    def order(self) -> int:
        return len(self.shape)

    def __repr__(self):
        return (
            f"Tensor({self.name!r}, shape={self.shape}, format={self.format.name()},"
            f" nnz={nnz(self)})"
        )


def _assemble(shape, fmt: TensorFormat, coords: np.ndarray, vals: np.ndarray, name: str) -> Tensor:
    """Build storage from deduplicated entries in logical coordinate order."""
    n = len(vals)
    order = fmt.order
    if n:
        perm_cols = coords[:, list(fmt.mode_ordering)]
        sort = np.lexsort(tuple(perm_cols[:, k] for k in reversed(range(order))))
        perm_cols = perm_cols[sort]
        vals = vals[sort]
    else:
        perm_cols = np.zeros((0, order), dtype=np.int64)
    return _assemble_presorted(shape, fmt, perm_cols, vals, name)


def _assemble_presorted(
    shape, fmt: TensorFormat, perm_cols: np.ndarray, vals: np.ndarray, name: str
) -> Tensor:
    """Build storage from unique entries already sorted in mode order."""
    n = len(vals)
    order = fmt.order
    vals = np.asarray(vals, dtype=np.float64)
    if not n:
        perm_cols = np.zeros((0, order), dtype=np.int64)

    if fmt.levels and fmt.levels[0] is LevelFormat.COORDINATE:
        levels = tuple(CoordinateLevel(_frozen(perm_cols[:, k])) for k in range(order))
        storage = TensorStorage(fmt, levels, _frozen(vals))
        storage.validate()
        return Tensor(name, tuple(shape), storage)

    # Positional levels, top-down: ``parent`` is each entry's position at
    # the level above, ``n_positions`` the number of positions there.
    parent = np.zeros(n, dtype=np.int64)
    n_positions = 1
    levels: list[LevelData] = []
    for k, kind in enumerate(fmt.levels):
        extent = fmt.level_extent(k)
        col = perm_cols[:, k].astype(np.int64)
        if kind is LevelFormat.DENSE:
            levels.append(DenseLevel(extent))
            parent = parent * extent + col
            n_positions *= extent
        else:  # compressed: one position per distinct (parent, coordinate)
            first = np.ones(n, dtype=bool)
            first[1:] = (parent[1:] != parent[:-1]) | (col[1:] != col[:-1])
            pos = np.zeros(n_positions + 1, dtype=np.int64)
            np.cumsum(np.bincount(parent[first], minlength=n_positions), out=pos[1:])
            levels.append(CompressedLevel(_frozen(pos), _frozen(col[first])))
            parent = np.cumsum(first) - 1
            n_positions = int(first.sum())

    if np.any(parent[1:] == parent[:-1]):
        raise AssertionError("duplicate coordinates survived deduplication")
    out_vals = np.zeros(n_positions, dtype=np.float64)
    out_vals[parent] = vals
    storage = TensorStorage(fmt, tuple(levels), _frozen(out_vals))
    storage.validate()
    return Tensor(name, tuple(shape), storage)


def build_from_entries(shape, fmt: TensorFormat, entries, name: str = "T") -> Tensor:
    """Construct a tensor from (coordinate tuple, value) pairs.

    Duplicate coordinates are summed (order-independently, via exact float
    summation). Explicit zeros are kept as stored values.
    """
    shape = tuple(int(s) for s in shape)
    if fmt.shape != shape:
        raise ShapeError(f"format shape {fmt.shape} != requested shape {shape}")
    acc: dict[tuple[int, ...], list[float]] = {}
    for coord, value in entries:
        coord = tuple(int(c) for c in coord)
        if len(coord) != len(shape):
            raise ShapeError(f"coordinate {coord} has wrong arity for shape {shape}")
        if any(c < 0 or c >= s for c, s in zip(coord, shape)):
            raise IndexError(f"coordinate {coord} out of bounds for shape {shape}")
        acc.setdefault(coord, []).append(float(value))
    items = sorted(acc.items())
    coords = np.asarray([c for c, _ in items], dtype=np.int64).reshape(len(items), len(shape))
    vals = np.asarray([v[0] if len(v) == 1 else math.fsum(v) for _, v in items], dtype=np.float64)
    return _assemble(shape, fmt, coords, vals, name)


def from_dense(array, fmt: TensorFormat | None = None, name: str = "T") -> Tensor:
    """Build a tensor from a dense array; defaults to an all-dense format."""
    array = np.asarray(array, dtype=np.float64)
    if fmt is None:
        fmt = dense_format(array.shape)
    if fmt.levels and not fmt.has_sparse_levels and fmt.mode_ordering == tuple(range(array.ndim)):
        storage = TensorStorage(
            fmt,
            tuple(DenseLevel(fmt.level_extent(k)) for k in range(fmt.order)),
            _frozen(array.reshape(-1).copy()),
        )
        storage.validate()
        return Tensor(name, array.shape, storage)
    entries = [(coord, array[coord]) for coord in np.ndindex(*array.shape) if array[coord] != 0.0]
    return build_from_entries(array.shape, fmt, entries, name=name)


def stored_entries(t: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """All stored coordinate paths (logical order) and their values."""
    fmt = t.format
    order = fmt.order
    n = len(t.storage.values)
    perm_cols = np.zeros((n, order), dtype=np.int64)

    if fmt.levels and fmt.levels[0] is LevelFormat.COORDINATE:
        for k in range(order):
            perm_cols[:, k] = t.storage.levels[k].crd
    else:
        # Walk levels top-down, expanding each position's coordinate prefix.
        coords_per_level: list[np.ndarray] = []
        reps = 1
        for k, kind in enumerate(fmt.levels):
            data = t.storage.levels[k]
            if kind is LevelFormat.DENSE:
                new = np.empty(reps * data.extent, dtype=np.int64)
                new.reshape(reps, data.extent)[:] = np.arange(data.extent)
                expand = np.repeat(np.arange(reps), data.extent)
                coords_per_level = [c[expand] for c in coords_per_level]
                coords_per_level.append(new)
                reps = reps * data.extent
            else:
                counts = np.diff(data.pos)
                expand = np.repeat(np.arange(reps), counts)
                coords_per_level = [c[expand] for c in coords_per_level]
                coords_per_level.append(data.crd.copy())
                reps = len(data.crd)
        for k in range(order):
            perm_cols[:, k] = coords_per_level[k]

    coords = np.zeros_like(perm_cols)
    for k, dim in enumerate(fmt.mode_ordering):
        coords[:, dim] = perm_cols[:, k]
    return coords, t.storage.values.copy()


def to_dense(t: Tensor) -> np.ndarray:
    """Materialize as a dense array; absent coordinates are 0.0."""
    out = np.zeros(t.shape, dtype=np.float64)
    coords, vals = stored_entries(t)
    if len(vals):
        out[tuple(coords[:, d] for d in range(t.order))] = vals
    return out


def convert(t: Tensor, target: TensorFormat, name: str | None = None) -> Tensor:
    """Re-store a tensor in another format; no arithmetic is performed.

    Stored values, including explicit zeros, survive the conversion.
    Transposition is conversion to a format with a different mode ordering.
    """
    if target.shape != t.shape:
        raise ShapeError(f"cannot convert shape {t.shape} to format with shape {target.shape}")
    coords, vals = stored_entries(t)
    return _assemble(t.shape, target, coords, vals, name if name is not None else t.name)


def nnz(t: Tensor) -> int:
    """Number of stored values (explicit zeros included)."""
    return len(t.storage.values)
