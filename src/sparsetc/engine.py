"""Execution of scheduled expressions by format-specialized co-iteration.

The right-hand side is a sum of products. Terms execute sequentially:
within a term, loops follow the schedule order, multiplication intersects
the ordered coordinate streams of the sparse operands, and dense operands
are located in O(1). Addition is realized across terms: for dense outputs
each term accumulates into the preallocated array; for sparse outputs the
terms of each output region scatter into an ordered workspace whose sorted
drain appends to the compressed output without ever sorting output levels.
A region is one binding of the output loops above the schedule's workspace
split (of every output loop when the schedule has no workspace), and each
access is read in the format the schedule recorded for it.

Each access folds into the running product at the deepest loop binding one
of its indices, and loops below the last output index sum before
multiplying, so a factor invariant to a reduction loop is applied once per
output element rather than once per reduction step. An operation counter
tracks every scalar multiply and add plus iterator movement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

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


@dataclass
class OpCounter:
    """Work performed by one execution.

    ``iterator_advances`` counts cursor movement (merge steps, seeks, and
    block selections); it is deterministic for a given schedule and inputs.
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
    """Ordered insert-or-accumulate map from coordinate tuples to values.

    Any ordered map satisfies the contract; this one is a hash map whose
    drain yields keys in sorted order.
    """

    def __init__(self):
        self._slots: dict[tuple, float] = {}

    def accumulate(self, key: tuple, value: float, counter: OpCounter) -> None:
        counter.scalar_adds += 1
        self._slots[key] = self._slots.get(key, 0.0) + value

    def drain(self):
        for key in sorted(self._slots):
            yield key, self._slots[key]

    def __len__(self):
        return len(self._slots)


class _PositionalCursor:
    """Position path into dense/compressed level storage, bound level by level."""

    def __init__(self, tensor: Tensor):
        st = tensor.storage
        self.kinds = st.format.levels
        self.datas = st.levels
        self.values = st.values
        self.extents = [st.format.level_extent(k) for k in range(st.format.order)]
        self.stack = [0]

    @property
    def depth(self) -> int:
        return len(self.stack) - 1

    def next_is_sparse(self) -> bool:
        return self.kinds[self.depth] is not LevelFormat.DENSE

    def segment_coords(self) -> np.ndarray:
        data = self.datas[self.depth]
        p = self.stack[-1]
        return data.crd[data.pos[p] : data.pos[p + 1]]

    def bind(self, coord: int, counter: OpCounter) -> bool:
        d = self.depth
        if self.kinds[d] is LevelFormat.DENSE:
            self.stack.append(self.stack[-1] * self.extents[d] + coord)
            return True
        data = self.datas[d]
        p = self.stack[-1]
        lo, hi = int(data.pos[p]), int(data.pos[p + 1])
        i = lo + int(np.searchsorted(data.crd[lo:hi], coord))
        counter.iterator_advances += 1
        if i < hi and data.crd[i] == coord:
            self.stack.append(i)
            return True
        return False

    def unbind(self) -> None:
        self.stack.pop()

    def value(self) -> float:
        return self.values[self.stack[-1]]


class _CooCursor:
    """Run of the aligned coordinate table matching the bound prefix."""

    def __init__(self, tensor: Tensor):
        st = tensor.storage
        self.crds = [lv.crd for lv in st.levels]
        self.values = st.values
        self.stack: list[tuple[int, int]] = [(0, len(st.values))]

    @property
    def depth(self) -> int:
        return len(self.stack) - 1

    def next_is_sparse(self) -> bool:
        return True

    def segment_coords(self) -> np.ndarray:
        lo, hi = self.stack[-1]
        return np.unique(self.crds[self.depth][lo:hi])

    def bind(self, coord: int, counter: OpCounter) -> bool:
        lo, hi = self.stack[-1]
        arr = self.crds[self.depth][lo:hi]
        left = lo + int(np.searchsorted(arr, coord, side="left"))
        right = lo + int(np.searchsorted(arr, coord, side="right"))
        counter.iterator_advances += 1
        if left < right:
            self.stack.append((left, right))
            return True
        return False

    def unbind(self) -> None:
        self.stack.pop()

    def value(self) -> float:
        return self.values[self.stack[-1][0]]


class _DenseReader:
    """O(1) locator into an all-dense operand; never constrains iteration."""

    def __init__(self, access: Access, tensor: Tensor):
        fmt = tensor.format
        self.values = tensor.storage.values
        strides = [0] * fmt.order
        acc = 1
        for k in reversed(range(fmt.order)):
            strides[fmt.mode_ordering[k]] = acc
            acc *= fmt.level_extent(k)
        self.dim_strides = strides  # indexed by logical dimension
        self.indices = access.indices

    def value(self, env: dict) -> float:
        off = 0
        for d, var in enumerate(self.indices):
            off += self.dim_strides[d] * env[var]
        return self.values[off]

    def vector(self, env: dict, var: IndexVar, coords: np.ndarray) -> np.ndarray:
        d = self.indices.index(var)
        off = 0
        for d2, v2 in enumerate(self.indices):
            if d2 != d:
                off += self.dim_strides[d2] * env[v2]
        stride = self.dim_strides[d]
        if stride == 1:
            return self.values[off + int(coords[0]) : off + int(coords[-1]) + 1]
        return self.values[off + stride * coords]


def _intersect_sorted(arrays: list[np.ndarray], counter: OpCounter) -> np.ndarray:
    """Ordered intersection, seeking from the smallest operand outward."""
    base = min(arrays, key=len)
    counter.iterator_advances += len(base)
    result = base
    for other in arrays:
        if other is base or not len(result):
            continue
        idx = np.searchsorted(other, result)
        ok = idx < len(other)
        ok[ok] = other[idx[ok]] == result[ok]
        result = result[ok]
        counter.iterator_advances += len(result) + 1
    return result


def _union_sorted(arrays: list[np.ndarray], counter: OpCounter) -> np.ndarray:
    out = arrays[0]
    counter.iterator_advances += len(arrays[0])
    for arr in arrays[1:]:
        out = np.union1d(out, arr)
        counter.iterator_advances += len(arr)
    return out


class _SparseOutputBuilder:
    """Collects appends in storage order and assembles them without sorting."""

    def __init__(self, shape, fmt: TensorFormat, name: str):
        self.shape = shape
        self.fmt = fmt
        self.name = name
        self.mode_coords: list[tuple[int, ...]] = []
        self.vals: list[float] = []

    def append(self, mode_coords: tuple[int, ...], value: float) -> None:
        if self.mode_coords and mode_coords <= self.mode_coords[-1]:
            raise AssertionError("sparse output appends must be strictly increasing")
        self.mode_coords.append(mode_coords)
        self.vals.append(float(value))

    def finish(self) -> Tensor:
        cols = np.asarray(self.mode_coords, dtype=np.int64).reshape(len(self.vals), self.fmt.order)
        return _assemble_presorted(
            self.shape, self.fmt, cols, np.asarray(self.vals, dtype=np.float64), self.name
        )


class _TermState:
    """Cursors, readers, and mode chains for one product term."""

    def __init__(self, term: tuple[Access, ...], tensor_of: dict[int, Tensor]):
        self.accesses = term
        self.vars = {v for a in term for v in a.indices}
        self.cursor_of: dict[int, object] = {}
        self.reader_of: dict[int, _DenseReader] = {}
        self.chains: dict[int, tuple[IndexVar, ...]] = {}
        for a in term:
            t = tensor_of[id(a)]
            self.chains[id(a)] = tuple(a.indices[d] for d in t.format.mode_ordering)
            if t.format.has_sparse_levels:
                if t.format.levels[0] is LevelFormat.COORDINATE:
                    self.cursor_of[id(a)] = _CooCursor(t)
                else:
                    self.cursor_of[id(a)] = _PositionalCursor(t)
            else:
                self.reader_of[id(a)] = _DenseReader(a, t)

    def participants(self, var: IndexVar) -> list:
        """Cursors whose next unbound level stores ``var``."""
        out = []
        for a in self.accesses:
            cur = self.cursor_of.get(id(a))
            if cur is None:
                continue
            chain = self.chains[id(a)]
            if cur.depth < len(chain) and chain[cur.depth] == var:
                out.append(cur)
        return out


class _Execution:
    def __init__(self, sched: Schedule, bindings: dict[str, Tensor] | None):
        self.expr = sched.expr
        self.sched = sched
        self.out_fmt = sched.out_format
        self.counter = OpCounter()
        self.extents = index_extents(self.expr)
        self.env: dict[IndexVar, int] = {}
        self.block_range: dict[IndexVar, tuple[int, int]] = {}

        if set(sched.loop_order) != set(get_index_variables(self.expr)):
            raise ValueError("schedule does not cover the expression's index variables")

        conversions: dict[tuple[int, TensorFormat], Tensor] = {}
        self.tensor_of: dict[int, Tensor] = {}
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
            self.tensor_of[id(a)] = t

        self.steps = expanded_loops(sched)
        self.out_vars = self.expr.output_indices
        self.out_chain = tuple(self.out_vars[d] for d in self.out_fmt.mode_ordering)
        self.terms = [_TermState(term, self.tensor_of) for term in self.expr.terms()]

    # ---- step iteration helpers --------------------------------------------

    def _step_coords(self, step: LoopStep, parts) -> np.ndarray:
        sparse_parts = [c for c in parts if c.next_is_sparse()]
        if sparse_parts:
            if step.var in self.block_range:
                raise AssertionError("tiled loops never iterate sparse structures")
            segs = [c.segment_coords() for c in sparse_parts]
            return _intersect_sorted(segs, self.counter)
        lo, hi = self.block_range.get(step.var, (0, self.extents[step.var]))
        return np.arange(lo, hi, dtype=np.int64)

    def _bind_parts(self, parts, coord: int) -> bool:
        bound = []
        for cur in parts:
            if cur.bind(coord, self.counter):
                bound.append(cur)
            else:
                for b in reversed(bound):
                    b.unbind()
                return False
        return True

    @staticmethod
    def _unbind_parts(parts) -> None:
        for cur in reversed(parts):
            cur.unbind()

    def _blocks(self, var: IndexVar):
        ts = self.sched.tile_size
        extent = self.extents[var]
        for lo in range(0, extent, ts):
            self.block_range[var] = (lo, min(lo + ts, extent))
            self.counter.iterator_advances += 1
            yield
        del self.block_range[var]

    # ---- per-term execution --------------------------------------------------

    def _run_term(self, ts: _TermState, steps, keys, sink, exclude=frozenset()):
        """Execute one term's sub-nest.

        ``keys`` are the variables whose bindings key the sink; loops below
        the deepest key binding form a pure reduction suffix that sums
        before being multiplied into the running product. ``sink`` receives
        ``(key tuple, value)`` once per key binding.
        """
        counter = self.counter
        binding_depth = {s.var: i for i, s in enumerate(steps) if s.role != "block"}
        consumed_at: dict[int, list] = {i: [] for i in range(len(steps))}
        consumed_pre: list[Access] = []
        for a in ts.accesses:
            if id(a) in exclude:
                continue
            depths = [binding_depth[v] for v in a.indices if v in binding_depth]
            if depths:
                consumed_at[max(depths)].append(a)
            else:
                consumed_pre.append(a)
        key_depths = [binding_depth[v] for v in keys if v in binding_depth]
        kd = max(key_depths) if key_depths else -1

        def read(a: Access) -> float:
            cur = ts.cursor_of.get(id(a))
            if cur is not None:
                return cur.value()
            return ts.reader_of[id(a)].value(self.env)

        def fold(carry, accesses):
            for a in accesses:
                v = read(a)
                if carry is None:
                    carry = v
                else:
                    carry = carry * v
                    counter.scalar_mults += 1
            return carry

        def reduce_zone(d: int) -> float:
            step = steps[d]
            if step.role == "block":
                total = 0.0
                for _ in self._blocks(step.var):
                    total += reduce_zone(d + 1)
                return total
            consumed = consumed_at[d]
            parts = ts.participants(step.var)
            if d == len(steps) - 1 and not parts and consumed and all(
                id(a) in ts.reader_of for a in consumed
            ):
                # Innermost dense reduction over dense operands: vectorize the
                # products, then accumulate left to right to keep the scalar
                # path's summation order bit for bit.
                coords = self._step_coords(step, parts)
                if not len(coords):
                    return 0.0
                vecs = [ts.reader_of[id(a)].vector(self.env, step.var, coords) for a in consumed]
                prod = vecs[0]
                for v in vecs[1:]:
                    prod = prod * v
                    counter.scalar_mults += len(coords)
                counter.iterator_advances += len(coords)
                total = 0.0
                for x in prod:
                    total += x
                counter.scalar_adds += len(coords)
                return total
            coords = self._step_coords(step, parts)
            total = 0.0
            for c in coords:
                c = int(c)
                if not self._bind_parts(parts, c):
                    raise AssertionError("intersected coordinate missing from a source")
                self.env[step.var] = c
                local = fold(None, consumed)
                if d + 1 < len(steps):
                    deeper = reduce_zone(d + 1)
                    if local is None:
                        local = deeper
                    else:
                        local = local * deeper
                        counter.scalar_mults += 1
                total += 0.0 if local is None else local
                counter.scalar_adds += 1
                self._unbind_parts(parts)
            return total

        def emit(carry):
            if kd + 1 < len(steps):
                total = reduce_zone(kd + 1)
                if carry is not None:
                    total = carry * total
                    counter.scalar_mults += 1
            else:
                total = carry
            sink(tuple(self.env[v] for v in keys), total)

        def key_zone(d: int, carry):
            if d == kd + 1:
                emit(carry)
                return
            step = steps[d]
            if step.role == "block":
                for _ in self._blocks(step.var):
                    key_zone(d + 1, carry)
                return
            parts = ts.participants(step.var)
            consumed = consumed_at[d]
            coords = self._step_coords(step, parts)
            for c in coords:
                c = int(c)
                if not self._bind_parts(parts, c):
                    raise AssertionError("intersected coordinate missing from a source")
                self.env[step.var] = c
                key_zone(d + 1, fold(carry, consumed))
                self._unbind_parts(parts)

        key_zone(0, fold(None, consumed_pre))

    # ---- dense output ---------------------------------------------------------

    def _run_dense_output(self) -> Tensor:
        out_shape = self.expr.output_shape
        size = 1
        for s in out_shape:
            size *= s
        out_values = np.zeros(size, dtype=np.float64)
        strides = [0] * self.out_fmt.order
        acc = 1
        for k in reversed(range(self.out_fmt.order)):
            strides[self.out_fmt.mode_ordering[k]] = acc
            acc *= self.out_fmt.level_extent(k)
        stride_of_var = {v: strides[d] for d, v in enumerate(self.out_vars)}
        counter = self.counter

        for ts in self.terms:
            steps = [s for s in self.steps if s.var in ts.vars or s.var in self.out_vars]
            binding_steps = [s for s in steps if s.role != "block"]

            def scalar_sink(key, total):
                off = 0
                for v, c in zip(self.out_vars, key):
                    off += stride_of_var[v] * c
                out_values[off] += 0.0 if total is None else total
                counter.scalar_adds += 1

            fast = (
                steps
                and steps[-1].role != "block"
                and steps[-1].var in stride_of_var
                and binding_steps
                and binding_steps[-1] is steps[-1]
            )
            if fast:
                # Every access var has a binding step here, so the accesses
                # consumed at the tail are exactly those containing its var.
                consumed_tail = [a for a in ts.accesses if steps[-1].var in a.indices]
                fast = all(id(a) in ts.reader_of for a in consumed_tail)
            if not fast:
                self._run_term(ts, steps, tuple(self.out_vars), scalar_sink)
                continue

            head = steps[:-1]
            head_keys = tuple(s.var for s in binding_steps[:-1])
            tail_var = steps[-1].var
            tail_stride = stride_of_var[tail_var]
            excluded = frozenset(id(a) for a in consumed_tail)

            def vector_sink(_key, carry):
                if ts.participants(tail_var):
                    raise AssertionError("vectorized tail encountered a cursor participant")
                lo, hi = self.block_range.get(tail_var, (0, self.extents[tail_var]))
                if hi <= lo:
                    return
                coords = np.arange(lo, hi, dtype=np.int64)
                vec = None
                for a in consumed_tail:
                    arr = ts.reader_of[id(a)].vector(self.env, tail_var, coords)
                    if vec is None:
                        vec = arr
                    else:
                        vec = vec * arr
                        counter.scalar_mults += len(coords)
                if vec is None:
                    vec = np.full(len(coords), 0.0 if carry is None else carry)
                elif carry is not None:
                    vec = carry * vec
                    counter.scalar_mults += len(coords)
                counter.iterator_advances += len(coords)
                base = 0
                for v in self.out_vars:
                    if v != tail_var:
                        base += stride_of_var[v] * self.env[v]
                if tail_stride == 1:
                    out_values[base + lo : base + hi] += vec
                else:
                    out_values[base + tail_stride * coords] += vec
                counter.scalar_adds += len(coords)

            self._run_term(ts, head, head_keys, vector_sink, exclude=excluded)

        storage = TensorStorage(
            self.out_fmt,
            tuple(DenseLevel(self.out_fmt.level_extent(k)) for k in range(self.out_fmt.order)),
            _frozen(out_values),
        )
        storage.validate()
        return Tensor(self.expr.output_name, out_shape, storage)

    # ---- sparse output ---------------------------------------------------------

    def _run_sparse_output(self) -> Tensor:
        out_shape = self.expr.output_shape
        plan = self.sched.workspace
        ws_vars = () if plan is None else plan.ws_indices
        keys = tuple(v for v in self.out_chain if v in ws_vars)
        outer_vars = tuple(v for v in self.out_chain if v not in ws_vars)
        outer_steps = self.steps[: len(outer_vars)]
        inner_steps = self.steps[len(outer_vars) :]
        if outer_steps != tuple(LoopStep(v, "full") for v in outer_vars):
            raise AssertionError("outer output loops must lead the nest untiled")
        builder = _SparseOutputBuilder(out_shape, self.out_fmt, self.expr.output_name)
        term_inner = [
            [s for s in inner_steps if s.var in ts.vars or s.var in keys] for ts in self.terms
        ]

        def outer(d: int, active: list[int]):
            if d == len(outer_steps):
                ws = Workspace()
                for i in active:
                    self._run_term(
                        self.terms[i],
                        term_inner[i],
                        keys,
                        lambda key, total: ws.accumulate(
                            key, 0.0 if total is None else total, self.counter
                        ),
                    )
                prefix = tuple(self.env[v] for v in outer_vars)
                for key, val in ws.drain():
                    builder.append(prefix + key, val)
                return
            step = outer_steps[d]
            per_term = []
            streams = []
            full_range = False
            for i in active:
                ts = self.terms[i]
                parts = ts.participants(step.var) if step.var in ts.vars else []
                per_term.append((i, parts))
                sparse_parts = [c for c in parts if c.next_is_sparse()]
                if not sparse_parts:
                    full_range = True
                else:
                    segs = [c.segment_coords() for c in sparse_parts]
                    streams.append(_intersect_sorted(segs, self.counter))
            if full_range:
                coords = np.arange(self.extents[step.var], dtype=np.int64)
                self.counter.iterator_advances += len(coords)
            elif streams:
                coords = _union_sorted(streams, self.counter)
            else:
                coords = np.zeros(0, dtype=np.int64)
            for c in coords:
                c = int(c)
                self.env[step.var] = c
                next_active = []
                bound = []
                for i, parts in per_term:
                    if self._bind_parts(parts, c):
                        next_active.append(i)
                        bound.append(parts)
                outer(d + 1, next_active)
                for parts in reversed(bound):
                    self._unbind_parts(parts)

        outer(0, list(range(len(self.terms))))
        return builder.finish()

    def run(self) -> tuple[Tensor, OpCounter]:
        if self.out_fmt.shape != self.expr.output_shape:
            raise ShapeError(
                f"output format shape {self.out_fmt.shape} != "
                f"expression output {self.expr.output_shape}"
            )
        if self.out_fmt.has_sparse_levels:
            return self._run_sparse_output(), self.counter
        return self._run_dense_output(), self.counter


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
