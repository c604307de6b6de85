"""Execution of scheduled expressions, one loop level at a time over arrays.

The right-hand side is a sum of products and the terms run one after
another. A term walks the schedule's loop nest (``expanded_loops``) as a
frontier: one row per bound loop prefix, held as an array of coordinates
per bound index plus one storage-position array per operand with sparse
levels. Each loop level transforms the whole frontier with numpy:

* when some operand stores the level sparsely, every row expands along the
  first such operand's segment (``np.repeat`` over ``pos`` differences)
  and the other sparse operands are probed with one ``searchsorted`` on a
  monotone segment-id x extent + coordinate key; coordinate (COO) operands
  are read through the equivalent compressed levels;
* otherwise the rows expand over the full range, or over the block that a
  hoisted tile loop selected;
* dense operands are gathered by stride arithmetic.

Each access multiplies into the running product at the deepest loop that
binds one of its indices. Loops below the deepest output index form a
reduction zone that folds bottom up: a row's value is the product of the
accesses consumed at its depth times the sum of its children, and every
sum starts at 0.0 and adds in row order. A reduction loop split by the
tiler runs as one ascending range, so tiled and untiled runs are
bit-identical. Dense outputs take each term's values with ``np.add.at``.
Sparse outputs collect every term's (coordinates, value) rows in a
``Workspace``, which merges them with one stable sort so equal coordinates
sum in arrival order, and assemble the sorted result without ever sorting
an output level.

Every level expands its frontier in consecutive chunks of at most
``CHUNK_ROWS`` rows (a single wider parent row forms its own chunk), split
on parent-row boundaries, so no reduction group straddles two chunks and
transient memory stays bounded. The operation counter's multiplies and
adds are array lengths times per-level constants.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .expr import Access, IndexVar, TensorExpr, get_index_variables, index_extents
from .format_inference import infer_format
from .formats import LevelFormat, TensorFormat, dense_format
from .oracle import eval_dense
from .scheduler import CostModel, Schedule, schedule, schedule_to_dict
from .tensor import (
    DenseLevel,
    ShapeError,
    Tensor,
    TensorStorage,
    _assemble_presorted,
    _frozen,
    convert,
    from_dense,
)
from .tiling import DEFAULT_TILE_SIZE, LoopStep, expanded_loops, tile

# Rows one loop level materializes at a time. At 16k rows SpMM's transient
# arrays stay under 3 MB while per-chunk overhead stays small.
CHUNK_ROWS = 1 << 14


@dataclass
class OpCounter:
    """Work performed by one execution.

    ``iterator_advances`` counts the candidates each loop level generates
    (segment entries, range coordinates and selected blocks) plus one per
    probe of a further sparse operand. It is derived from array lengths,
    deterministic, and the same for tiled and untiled runs up to the block
    selections of hoisted tile loops.
    """

    scalar_mults: int = 0
    scalar_adds: int = 0
    iterator_advances: int = 0

    def as_dict(self) -> dict:
        return {
            "scalar_mults": self.scalar_mults,
            "scalar_adds": self.scalar_adds,
            "iterator_advances": self.iterator_advances,
        }


class Workspace:
    """Sorted-key array merge that collects a sparse output's values.

    Rows arrive in blocks: ``regions`` are the coordinates of the output
    loops above the workspace split, ``keys`` those of the workspace
    indices, together ``width`` columns in output storage order. ``drain``
    stably sorts all rows by (region, key) and sums each distinct
    coordinate from 0.0 in arrival order.
    """

    def __init__(self, width: int):
        self._coords = [np.zeros((0, width), dtype=np.int64)]
        self._values = [np.zeros(0)]

    def accumulate(
        self, regions: np.ndarray, keys: np.ndarray, values: np.ndarray, counter: OpCounter
    ) -> None:
        counter.scalar_adds += len(values)
        self._coords.append(np.hstack([regions, keys]))
        self._values.append(values)

    def drain(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct coordinates in sorted order and the sum of each."""
        coords = np.concatenate(self._coords)
        values = np.concatenate(self._values)
        order = np.lexsort(coords.T[::-1])
        coords, values = coords[order], values[order]
        first = np.ones(len(values), dtype=bool)
        first[1:] = np.any(coords[1:] != coords[:-1], axis=1)
        sums = np.bincount(np.cumsum(first) - 1, weights=values, minlength=int(first.sum()))
        return coords[first], sums


def _strides(fmt: TensorFormat) -> list[int]:
    """Flat-storage stride of each logical dimension of an all-dense format."""
    strides = [0] * fmt.order
    acc = 1
    for k in reversed(range(fmt.order)):
        strides[fmt.mode_ordering[k]] = acc
        acc *= fmt.level_extent(k)
    return strides


class _Cursor:
    """Dense and compressed levels of an operand with sparse levels."""

    def __init__(self, t: Tensor):
        st = t.storage
        if st.format.levels[0] is LevelFormat.COORDINATE:
            # The sorted coordinate table is a compressed hierarchy of runs.
            fmt = TensorFormat(
                t.shape, st.format.mode_ordering, (LevelFormat.COMPRESSED,) * st.format.order
            )
            table = np.stack([lv.crd for lv in st.levels], axis=1)
            st = _assemble_presorted(t.shape, fmt, table, st.values, t.name).storage
        self.levels = st.levels
        self.values = st.values
        self.mode_ordering = st.format.mode_ordering
        self.extents = [st.format.level_extent(k) for k in range(st.format.order)]
        self._keys: dict[int, np.ndarray] = {}

    def key(self, k: int) -> np.ndarray:
        """Monotone segment * extent + coordinate over compressed level ``k``."""
        if k not in self._keys:
            pos, crd = self.levels[k].pos, self.levels[k].crd
            seg = np.repeat(np.arange(len(pos) - 1, dtype=np.int64), np.diff(pos))
            self._keys[k] = seg * self.extents[k] + crd
        return self._keys[k]


@dataclass
class _Level:
    """One loop of a term's nest and what binds at it."""

    var: IndexVar
    kind: str  # "range" | "block" (hoisted tile loop) | "in_block"
    extent: int
    driver: tuple[int, int] | None = None  # (cursor, level) whose segments expand rows
    probes: list[tuple[int, int]] = field(default_factory=list)  # other compressed levels
    dense_parts: list[tuple[int, int]] = field(default_factory=list)  # dense levels
    consumed: list[Access] = field(default_factory=list)
    keep: set = field(default_factory=set)  # frontier arrays this level carries down


class _Term:
    """A product term lowered onto the loop nest."""

    def __init__(self, ex: "_Execution", accesses: tuple[Access, ...]):
        term_vars = {v for a in accesses for v in a.indices}
        out_vars = set(ex.out_vars)
        self.levels: list[_Level] = []
        for s in ex.steps:
            if s.var in out_vars:
                kind = {"full": "range", "block": "block", "intra": "in_block"}[s.role]
            elif s.var not in term_vars or s.role == "block":
                continue  # a split reduction runs as one ascending range
            else:
                kind = "range"
            self.levels.append(_Level(s.var, kind, ex.extents[s.var]))
        depth = {lv.var: d for d, lv in enumerate(self.levels) if lv.kind != "block"}
        self.kd = max((depth[v] for v in ex.out_vars), default=-1)

        # Accesses whose indices all bind in a sparse output's region loops
        # (the output loops above the workspace split) multiply in together
        # at the last region loop, in term order.
        floor = len(ex.regions) - 1 if ex.out_fmt.has_sparse_levels else -1
        self.pre: list[Access] = []
        for a in accesses:
            d = max([floor] + [depth[v] for v in a.indices])
            (self.pre if d < 0 else self.levels[d].consumed).append(a)
            if id(a) not in ex.cursors:
                continue
            cur = ex.cursors[id(a)]
            for k, dim in enumerate(cur.mode_ordering):
                lv = self.levels[depth[a.indices[dim]]]
                if isinstance(cur.levels[k], DenseLevel):
                    lv.dense_parts.append((id(a), k))
                elif lv.kind != "range":
                    raise AssertionError("tiled loops never iterate sparse structures")
                elif lv.driver is None:
                    lv.driver = (id(a), k)
                else:
                    lv.probes.append((id(a), k))
        self.cursor_ids = [id(a) for a in accesses if id(a) in ex.cursors]

        # What each level gathers from the rows above: the arrays it or a
        # deeper level reads, and the output coordinates until the emit.
        live: set = set()
        for d in reversed(range(len(self.levels))):
            lv = self.levels[d]
            if d == self.kd:
                live |= {("coord", v) for v in ex.out_vars}
            uses = {("pos", c) for c, _ in lv.probes + lv.dense_parts}
            for a in lv.consumed:
                uses |= {("pos", id(a))} if id(a) in ex.cursors else {("coord", v) for v in a.indices}
            # _span reads these from the rows above; this level sets them anew
            span = {("pos", lv.driver[0])} if lv.driver else set()
            if lv.kind == "in_block":
                span = {("block", lv.var)}
            lv.keep = (live | uses) - span - {("coord", lv.var), ("block", lv.var)}
            live = lv.keep | span
        # At a dense output's innermost output loop over dense operands only,
        # those operands multiply together before joining the running
        # product; outputs are pinned bit for bit to this association.
        tail = self.levels[-1] if self.levels else None
        self.tail_product = (
            tail is not None
            and not ex.out_fmt.has_sparse_levels
            and tail.var in out_vars
            and not any(id(a) in ex.cursors for a in tail.consumed)
        )


class _Frontier:
    """Rows of bound loop prefixes: parallel arrays keyed ("coord", var),
    ("block", var) or ("pos", cursor), plus the running product."""

    def __init__(self, n: int, arrays: dict, carry: np.ndarray | None = None):
        self.n = n
        self.arrays = arrays
        self.carry = carry

    def take(self, rows, keep=None) -> "_Frontier":
        """The rows selected by an index array or a slice, with the arrays in ``keep`` (all if None)."""
        n = rows.stop - rows.start if isinstance(rows, slice) else len(rows)
        arrays = {k: a[rows] for k, a in self.arrays.items() if keep is None or k in keep}
        return _Frontier(n, arrays, None if self.carry is None else self.carry[rows])


def _columns(F: _Frontier, vs: tuple[IndexVar, ...]) -> np.ndarray:
    """The coordinates of ``vs`` as an (n, len(vs)) table."""
    if not vs:
        return np.zeros((F.n, 0), dtype=np.int64)
    return np.stack([F.arrays["coord", v] for v in vs], axis=1)


def _offsets(F: _Frontier, strides: list[tuple[IndexVar, int]]) -> np.ndarray:
    """Flat storage offsets of ``F``'s rows given each index's stride."""
    off = np.zeros(F.n, dtype=np.int64)
    for v, stride in strides:
        off = off + (F.arrays["coord", v] if stride == 1 else stride * F.arrays["coord", v])
    return off


def _chunks(counts: np.ndarray):
    """Consecutive row ranges whose expansions hold at most CHUNK_ROWS rows each."""
    ends = np.cumsum(counts)
    a = 0
    while a < len(counts):
        base = ends[a - 1] if a else 0
        b = max(int(np.searchsorted(ends, base + CHUNK_ROWS, side="right")), a + 1)
        yield a, b
        a = b


class _Execution:
    def __init__(self, sched: Schedule, bindings: dict[str, Tensor] | None):
        self.expr = sched.expr
        self.out_fmt = sched.out_format
        self.counter = OpCounter()
        self.extents = index_extents(self.expr)

        if set(sched.loop_order) != set(get_index_variables(self.expr)):
            raise ValueError("schedule does not cover the expression's index variables")

        conversions: dict[tuple[int, TensorFormat], Tensor] = {}
        self.cursors: dict[int, _Cursor] = {}
        self.dense: dict[int, tuple[np.ndarray, list[tuple[IndexVar, int]]]] = {}
        for a, fmt in zip(self.expr.accesses, sched.access_formats):
            t = a.tensor
            if bindings is not None and a.tensor.name in bindings:
                t = bindings[a.tensor.name]
                if t.shape != a.tensor.shape or t.format != a.tensor.format:
                    raise ShapeError(
                        f"rebinding of {a.tensor.name} must match the scheduled shape and format"
                    )
            if fmt != t.format:
                key = (id(t), fmt)
                if key not in conversions:
                    conversions[key] = convert(t, fmt)
                t = conversions[key]
            if t.format.has_sparse_levels:
                self.cursors[id(a)] = _Cursor(t)
            else:
                self.dense[id(a)] = (t.storage.values, list(zip(a.indices, _strides(t.format))))

        self.steps = expanded_loops(sched)
        self.out_vars = self.expr.output_indices
        out_chain = tuple(self.out_vars[d] for d in self.out_fmt.mode_ordering)
        ws_vars = () if sched.workspace is None else sched.workspace.ws_indices
        self.ws_keys = tuple(v for v in out_chain if v in ws_vars)
        self.regions = tuple(v for v in out_chain if v not in ws_vars)
        if self.out_fmt.has_sparse_levels and self.steps[: len(self.regions)] != tuple(
            LoopStep(v, "full") for v in self.regions
        ):
            raise AssertionError("outer output loops must lead the nest untiled")
        self.tile_size = sched.tile_size
        self.out_strides = list(zip(self.out_vars, _strides(self.out_fmt)))
        self.terms = [_Term(self, term) for term in self.expr.terms()]

    # ---- arithmetic ------------------------------------------------------------

    def _fold(self, carry, values: list, n: int):
        """Left-to-right product of ``carry`` (None if empty) and ``values``."""
        for v in values:
            if carry is None:
                carry = v
            else:
                carry = carry * v
                self.counter.scalar_mults += n
        return carry

    def _product(self, accesses: list[Access], C: _Frontier, grouped: bool = False):
        """``C``'s running product times ``accesses``, those first multiplied
        together when ``grouped``."""
        values = []
        for a in accesses:
            if id(a) in self.cursors:
                values.append(self.cursors[id(a)].values[C.arrays["pos", id(a)]])
            else:
                stored, strides = self.dense[id(a)]
                values.append(stored[_offsets(C, strides)])
        if grouped and values:
            values = [self._fold(None, values, C.n)]
        return self._fold(C.carry, values, C.n)

    # ---- one loop level ------------------------------------------------------------

    def _span(self, lv: _Level, F: _Frontier) -> tuple[np.ndarray, np.ndarray]:
        """Candidate count and first candidate of ``lv`` for every row of ``F``."""
        if lv.kind == "block":
            return np.full(F.n, -(-lv.extent // self.tile_size)), np.zeros(F.n, dtype=np.int64)
        if lv.driver is not None:
            cur, k = lv.driver
            pos, p = self.cursors[cur].levels[k].pos, F.arrays["pos", cur]
            return pos[p + 1] - pos[p], pos[p]
        if lv.kind == "in_block":
            lo = F.arrays["block", lv.var] * self.tile_size
            return np.minimum(lo + self.tile_size, lv.extent) - lo, lo
        return np.full(F.n, lv.extent), np.zeros(F.n, dtype=np.int64)

    def _expand(self, lv: _Level, F: _Frontier, counts, firsts) -> tuple[np.ndarray, _Frontier]:
        """The rows ``lv`` binds below ``F``, and the row of ``F`` each comes from."""
        parent = np.repeat(np.arange(F.n), counts)
        cand = np.arange(len(parent)) + np.repeat(firsts - (np.cumsum(counts) - counts), counts)
        self.counter.iterator_advances += len(cand) * (1 + len(lv.probes))
        C = F.take(parent, lv.keep)
        if lv.kind == "block":
            C.arrays["block", lv.var] = cand
            return parent, C
        coord = cand
        if lv.driver is not None:
            C.arrays["pos", lv.driver[0]] = cand
            coord = self.cursors[lv.driver[0]].levels[lv.driver[1]].crd[cand]
        C.arrays["coord", lv.var] = coord
        for cur, k in lv.dense_parts:
            C.arrays["pos", cur] = C.arrays["pos", cur] * self.cursors[cur].extents[k] + coord
        if not lv.probes:
            return parent, C
        hit = np.ones(C.n, dtype=bool)
        for cur, k in lv.probes:
            key = self.cursors[cur].key(k)
            target = C.arrays["pos", cur] * self.cursors[cur].extents[k] + coord
            idx = np.searchsorted(key, target)
            found = idx < len(key)
            found[found] = key[idx[found]] == target[found]
            hit &= found
            C.arrays["pos", cur] = idx
        rows = np.flatnonzero(hit)
        return parent[rows], C.take(rows)

    # ---- a term's nest -----------------------------------------------------------

    def _walk(self, term: _Term, d: int, F: _Frontier) -> None:
        """Bind the output-key loops from depth ``d`` down, then emit."""
        if d > term.kd:
            total = F.carry
            if d < len(term.levels):  # the reduction zone starts its own products
                sums = self._reduce(term, d, _Frontier(F.n, F.arrays))
                total = self._fold(total, [sums], F.n)
            self._emit(F, np.zeros(F.n) if total is None else total)
            return
        lv = term.levels[d]
        counts, firsts = self._span(lv, F)
        for a, b in _chunks(counts):
            C = self._expand(lv, F.take(slice(a, b)), counts[a:b], firsts[a:b])[1]
            tail = term.tail_product and d == len(term.levels) - 1
            C.carry = self._product(lv.consumed, C, tail)
            self._walk(term, d + 1, C)

    def _reduce(self, term: _Term, d: int, F: _Frontier) -> np.ndarray:
        """Per row of ``F``: its children's values at depth ``d``, summed from 0.0 in order."""
        lv = term.levels[d]
        counts, firsts = self._span(lv, F)
        sums = np.zeros(F.n)
        for a, b in _chunks(counts):
            parent, C = self._expand(lv, F.take(slice(a, b)), counts[a:b], firsts[a:b])
            value = self._product(lv.consumed, C)
            if d + 1 < len(term.levels):
                value = self._fold(value, [self._reduce(term, d + 1, C)], C.n)
            self.counter.scalar_adds += C.n
            sums[a:b] = np.bincount(parent, weights=value, minlength=b - a)
        return sums

    def _emit(self, F: _Frontier, total: np.ndarray) -> None:
        if self.ws is not None:
            regions, keys = (_columns(F, vs) for vs in (self.regions, self.ws_keys))
            self.ws.accumulate(regions, keys, total, self.counter)
            return
        np.add.at(self.out_values, _offsets(F, self.out_strides), total)
        self.counter.scalar_adds += F.n

    def run(self) -> tuple[Tensor, OpCounter]:
        if self.out_fmt.shape != self.expr.output_shape:
            raise ShapeError(
                f"output format shape {self.out_fmt.shape} != "
                f"expression output {self.expr.output_shape}"
            )
        out_shape = self.expr.output_shape
        self.ws = Workspace(self.out_fmt.order) if self.out_fmt.has_sparse_levels else None
        self.out_values = None if self.ws else np.zeros(int(np.prod(out_shape)), dtype=np.float64)
        for term in self.terms:
            root = _Frontier(1, {("pos", c): np.zeros(1, dtype=np.int64) for c in term.cursor_ids})
            root.carry = self._product(term.pre, root)
            self._walk(term, 0, root)

        if self.ws is not None:
            coords, sums = self.ws.drain()
            result = _assemble_presorted(out_shape, self.out_fmt, coords, sums, self.expr.output_name)
            return result, self.counter
        storage = TensorStorage(
            self.out_fmt,
            tuple(DenseLevel(self.out_fmt.level_extent(k)) for k in range(self.out_fmt.order)),
            _frozen(self.out_values),
        )
        storage.validate()
        return Tensor(self.expr.output_name, out_shape, storage), self.counter


def execute(
    sched: Schedule, bindings: dict[str, Tensor] | None = None
) -> tuple[Tensor, OpCounter]:
    """Run a schedule over concrete tensors; returns the result and op counts."""
    return _Execution(sched, bindings).run()


def run_with_report(
    e: TensorExpr,
    bindings: dict[str, Tensor] | None = None,
    out_format: TensorFormat | None = None,
    tile_size: int = DEFAULT_TILE_SIZE,
    tiling: bool = True,
    weights: CostModel = CostModel(),
) -> tuple[Tensor, OpCounter | None, dict]:
    """Full pipeline with a JSON-ready report of the path taken.

    Expressions whose operands are all dense dispatch straight to the dense
    evaluator; everything else is format-inferred, scheduled, tiled, and
    executed by co-iteration.
    """
    if bindings:
        for a in e.accesses:
            t = bindings.get(a.tensor.name)
            if t is not None and t.shape != a.tensor.shape:
                raise ShapeError(f"binding for {a.tensor.name} has shape {t.shape}")

    all_dense = all(not a.tensor.format.has_sparse_levels for a in e.accesses)
    if all_dense:
        t0 = time.perf_counter_ns()
        arr = eval_dense(e, bindings)
        wall = time.perf_counter_ns() - t0
        fmt = out_format if out_format is not None else dense_format(arr.shape)
        result = from_dense(arr, fmt, name=e.output_name)
        report = {
            "path": "dense",
            "inferred_format": infer_format(e).name(),
            "schedule": None,
            "counters": None,
            "wall_time_ns": wall,
        }
        return result, None, report

    out_fmt = out_format if out_format is not None else infer_format(e)
    sched = schedule(e, out_fmt, weights)
    if tiling:
        sched = tile(e, sched, tile_size)
    t0 = time.perf_counter_ns()
    result, counter = execute(sched, bindings)
    wall = time.perf_counter_ns() - t0
    report = {
        "path": "sparse",
        "inferred_format": infer_format(e).name(),
        "out_format": out_fmt.name(),
        "schedule": schedule_to_dict(sched),
        "counters": counter.as_dict(),
        "wall_time_ns": wall,
    }
    return result, counter, report


def run(e: TensorExpr, bindings: dict[str, Tensor] | None = None, **options) -> Tensor:
    """Evaluate an expression end to end and return the output tensor."""
    result, _, _ = run_with_report(e, bindings, **options)
    return result
