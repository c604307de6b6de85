"""Loop-order selection, transpose planning, and workspace insertion.

The planner works in three phases:

1. Index variables are sorted by descending sparsity, approximated by the
   number of sparse filters (an index has a filter when at least two
   accesses contain it and at least one of them stores it sparsely). Ties
   are broken by the ordering that would force fewer input transposes,
   then by first appearance.
2. A greedy pass tries to push each variable deeper; a move is taken when
   its net cost is negative. The cost charges lost filter pruning and
   forced dense iteration of sparse indices, and credits eliminated
   workspace dimensions and avoided transposes.
3. A mode-ordering constraint graph over the sparse accesses (and a sparse
   output) is made acyclic by transposing the cheapest offending tensor,
   and the loop order is stably re-sorted to a topological order of the
   residual graph. Dense tensors impose no constraints: they are randomly
   addressable in any order.

If the output has compressed levels and some output index sits below a
reduction loop, values would scatter into storage that only supports
ordered appends, so a workspace is inserted over those output indices and
the loop order splits into producer and consumer halves.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter

from .expr import Access, IndexVar, Mul, Node, TensorExpr, get_index_variables, get_reduction_variables
from .format_inference import LevelClass, infer_format, infer_level
from .formats import TensorFormat
from .tensor import nnz


class IterationKind(enum.Enum):
    DENSE_COUNT = "dense-count"
    SPARSE_ITERATE = "sparse-iterate"
    SPARSE_INTERSECT = "sparse-intersect"


@dataclass(frozen=True)
class Loop:
    var: IndexVar
    kind: IterationKind
    filters: tuple[str, ...] = ()
    is_reduction: bool = False


@dataclass(frozen=True)
class WorkspacePlan:
    split_var: IndexVar
    ws_indices: tuple[IndexVar, ...]
    producer_loops: tuple[IndexVar, ...]
    consumer_loops: tuple[IndexVar, ...]

    @property
    def dimensions(self) -> int:
        return len(self.ws_indices)


@dataclass(frozen=True)
class CostModel:
    """Weights of the greedy move cost. Defaults reproduce the worked
    row-wise product deltas sign-exactly: accepting the first push
    (+filter -workspace_dim -transpose = 4-2-3 < 0) and rejecting the
    inner-product push (4-2+3+1000 > 0)."""

    w_filter_loss: float = 4.0
    w_ws_dim: float = 2.0
    w_transpose: float = 3.0
    w_dense_iteration: float = 1000.0


@dataclass(frozen=True)
class MoveRecord:
    var: IndexVar
    from_pos: int
    to_pos: int
    cost: float
    components: tuple[tuple[str, float], ...]
    accepted: bool


@dataclass(frozen=True)
class Schedule:
    """The plan the engine runs.

    ``access_formats`` aligns with ``expr.accesses``: the format each access
    is read in. It differs from the tensor's own format exactly when that
    access is transposed, so two accesses of one tensor can disagree.
    """

    expr: TensorExpr
    out_format: TensorFormat
    loops: tuple[Loop, ...]
    access_formats: tuple[TensorFormat, ...]
    workspace: WorkspacePlan | None
    tiles: tuple[IndexVar, ...] = ()
    tile_size: int | None = None
    moves: tuple[MoveRecord, ...] = ()

    @property
    def loop_order(self) -> tuple[IndexVar, ...]:
        return tuple(l.var for l in self.loops)

    @property
    def transposes(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """Distinct (tensor name, mode ordering) pairs materialized, sorted."""
        return tuple(
            sorted(
                {
                    (a.tensor.name, fmt.mode_ordering)
                    for a, fmt in zip(self.expr.accesses, self.access_formats)
                    if fmt != a.tensor.format
                }
            )
        )


def _access_chain(a: Access) -> tuple[IndexVar, ...]:
    """The access's index variables in storage (mode) order."""
    fmt = a.tensor.format
    return tuple(a.indices[d] for d in fmt.mode_ordering)


def _violates(order_pos: dict[IndexVar, int], chain: tuple[IndexVar, ...]) -> bool:
    positions = [order_pos[v] for v in chain]
    return any(b < a for a, b in zip(positions, positions[1:]))


def _desired_ordering(a: Access, order_pos: dict[IndexVar, int]) -> tuple[int, ...]:
    """Mode ordering that stores the access's dimensions in loop order."""
    return tuple(sorted(range(len(a.indices)), key=lambda d: order_pos[a.indices[d]]))


def _filter_counts(e: TensorExpr) -> dict[IndexVar, int]:
    counts: dict[IndexVar, int] = {}
    for v in get_index_variables(e):
        containing = [a for a in e.accesses if v in a.indices]
        sparse = [a for a in containing if a.tensor.format.dim_is_sparse(a.indices.index(v))]
        counts[v] = len(sparse) if len(containing) >= 2 and sparse else 0
    return counts


def _violated_inputs(e: TensorExpr, order: list[IndexVar], sparse_only: bool = False) -> int:
    pos = {v: i for i, v in enumerate(order)}
    n = 0
    for a in e.accesses:
        if sparse_only and not a.tensor.format.has_sparse_levels:
            continue
        if _violates(pos, _access_chain(a)):
            n += 1
    return n


def _penalized_vars(e: TensorExpr, order: list[IndexVar]) -> int:
    """Variables that are sparse in some input yet unreachable through any
    input's level hierarchy given its prefix of the loop order."""
    pos = {v: i for i, v in enumerate(order)}
    n = 0
    for v in order:
        sparse_somewhere = any(
            v in a.indices and a.tensor.format.dim_is_sparse(a.indices.index(v))
            for a in e.accesses
        )
        if not sparse_somewhere:
            continue
        reached = False
        for a in e.accesses:
            if v not in a.indices:
                continue
            chain = _access_chain(a)
            preds = chain[: chain.index(v)]
            if all(pos[p] < pos[v] for p in preds):
                reached = True
                break
        if not reached:
            n += 1
    return n


def _ws_dims(e: TensorExpr, order: list[IndexVar], out_fmt: TensorFormat) -> int:
    if not out_fmt.has_sparse_levels:
        return 0
    pos = {v: i for i, v in enumerate(order)}
    red = get_reduction_variables(e)
    out_vars = e.output_indices
    return sum(1 for o in out_vars if any(pos[r] < pos[o] for r in red))


def sort_by_sparsity(index_vars, e: TensorExpr) -> tuple[IndexVar, ...]:
    """Order index variables by descending sparse-filter count.

    Ties are broken by the within-group arrangement that leaves the fewest
    input accesses iterated against their storage order, then by first
    appearance in the expression.
    """
    index_vars = list(index_vars)
    counts = _filter_counts(e)
    appearance = {v: i for i, v in enumerate(get_index_variables(e))}
    groups: list[list[IndexVar]] = []
    for count in sorted({counts[v] for v in index_vars}, reverse=True):
        groups.append(sorted([v for v in index_vars if counts[v] == count], key=appearance.get))

    n_perms = 1
    for g in groups:
        for i in range(2, len(g) + 1):
            n_perms *= i
    if n_perms > 50_000:
        return tuple(v for g in groups for v in g)

    best = None
    for combo in itertools.product(*(itertools.permutations(g) for g in groups)):
        order = [v for g in combo for v in g]
        key = (_violated_inputs(e, order), tuple(appearance[v] for v in order))
        if best is None or key < best[0]:
            best = (key, order)
    return tuple(best[1])


def move_cost(
    e: TensorExpr,
    out_fmt: TensorFormat,
    order: list[IndexVar],
    var: IndexVar,
    pos: int,
    weights: CostModel = CostModel(),
) -> tuple[float, tuple[tuple[str, float], ...]]:
    """Net cost of pushing ``var`` from its current position down to ``pos``."""
    cur = order.index(var)
    if pos <= cur or pos >= len(order):
        raise ValueError(f"move target {pos} must be below current position {cur}")
    new_order = list(order)
    new_order.pop(cur)
    new_order.insert(pos, var)
    passed = order[cur + 1 : pos + 1]

    filter_loss = 0.0
    if _filter_counts(e)[var] > 0:
        losers = sum(
            1
            for a in e.accesses
            if var in a.indices and any(p in a.indices for p in passed)
        )
        filter_loss = weights.w_filter_loss * losers

    ws_delta = weights.w_ws_dim * (_ws_dims(e, new_order, out_fmt) - _ws_dims(e, order, out_fmt))
    tr_delta = weights.w_transpose * (_violated_inputs(e, new_order) - _violated_inputs(e, order))
    pen_delta = weights.w_dense_iteration * (
        _penalized_vars(e, new_order) - _penalized_vars(e, order)
    )
    components = (
        ("filter_loss", filter_loss),
        ("workspace", ws_delta),
        ("transposes", tr_delta),
        ("dense_iteration", pen_delta),
    )
    return filter_loss + ws_delta + tr_delta + pen_delta, components


def _resolve_cycles(e: TensorExpr, out_fmt: TensorFormat, order: list[IndexVar]):
    """Drop the cheapest offending access's constraints until the mode graph
    is acyclic; returns (surviving edges, accesses to transpose)."""
    constrained = [a for a in e.accesses if a.tensor.format.has_sparse_levels]
    chains: dict[int, tuple[IndexVar, ...]] = {i: _access_chain(a) for i, a in enumerate(constrained)}
    out_chain: tuple[IndexVar, ...] = ()
    if out_fmt.has_sparse_levels:
        out_chain = tuple(e.output_indices[d] for d in out_fmt.mode_ordering)

    removed: set[int] = set()
    while True:
        edges: dict[tuple[IndexVar, IndexVar], set[int | None]] = {}
        for i, chain in chains.items():
            if i in removed:
                continue
            for u, v in zip(chain, chain[1:]):
                edges.setdefault((u, v), set()).add(i)
        for u, v in zip(out_chain, out_chain[1:]):
            edges.setdefault((u, v), set()).add(None)

        graph: dict[IndexVar, set[IndexVar]] = {v: set() for v in order}
        for (u, v), _ in edges.items():
            graph[v].add(u)
        try:
            TopologicalSorter(graph).prepare()
            return set(edges), removed
        except CycleError as err:
            cycle = err.args[1]
            candidates: list[tuple[int, str, int]] = []
            for u, v in zip(cycle, cycle[1:]):
                for owner in edges.get((u, v), ()):
                    if owner is not None:
                        a = constrained[owner]
                        candidates.append((nnz(a.tensor), a.tensor.name, owner))
            if not candidates:
                raise AssertionError("constraint cycle with no transposable input") from err
            removed.add(min(candidates)[2])


def _stable_topo(order: list[IndexVar], edges) -> list[IndexVar]:
    preds: dict[IndexVar, set[IndexVar]] = {v: set() for v in order}
    for u, v in edges:
        preds[v].add(u)
    remaining = list(order)
    emitted: list[IndexVar] = []
    done: set[IndexVar] = set()
    while remaining:
        for x in remaining:
            if preds[x] <= done:
                emitted.append(x)
                done.add(x)
                remaining.remove(x)
                break
        else:
            raise AssertionError("residual constraint graph is cyclic")
    return emitted


def _has_sparse_intersection(node: Node, v: IndexVar) -> bool:
    if isinstance(node, Access):
        return False
    if _has_sparse_intersection(node.lhs, v) or _has_sparse_intersection(node.rhs, v):
        return True
    if isinstance(node, Mul):
        sides = (infer_level(node.lhs, v), infer_level(node.rhs, v))
        return LevelClass.ABSENT not in sides and LevelClass.SPARSE in sides
    return False


def schedule(
    e: TensorExpr,
    out_fmt: TensorFormat | None = None,
    weights: CostModel = CostModel(),
) -> Schedule:
    """Plan loop order, transposes, and workspace for an expression."""
    if out_fmt is None:
        out_fmt = infer_format(e)
    index_vars = get_index_variables(e)
    order = list(sort_by_sparsity(index_vars, e))

    moves: list[MoveRecord] = []
    for v in order[:]:
        cur = order.index(v)
        for pos in range(cur + 1, len(order)):
            cost, components = move_cost(e, out_fmt, order, v, pos, weights)
            accepted = cost < 0
            moves.append(MoveRecord(v, cur, pos, cost, components, accepted))
            if accepted:
                order.pop(cur)
                order.insert(pos, v)
                cur = pos

    surviving_edges, _ = _resolve_cycles(e, out_fmt, order)
    order = _stable_topo(order, surviving_edges)
    pos = {v: i for i, v in enumerate(order)}

    access_formats = []
    for a in e.accesses:
        fmt = a.tensor.format
        if fmt.has_sparse_levels and _violates(pos, _access_chain(a)):
            fmt = fmt.with_mode_ordering(_desired_ordering(a, pos))
        access_formats.append(fmt)

    # A transpose keeps each dimension's level kind, so classifying the
    # accesses in their original formats gives the loop kinds of the plan.
    red_vars = get_reduction_variables(e)
    loops = []
    for v in order:
        if infer_level(e.rhs, v) is LevelClass.SPARSE:
            kind = (
                IterationKind.SPARSE_INTERSECT
                if _has_sparse_intersection(e.rhs, v)
                else IterationKind.SPARSE_ITERATE
            )
        else:
            kind = IterationKind.DENSE_COUNT
        filters = ()
        if kind is IterationKind.SPARSE_INTERSECT:
            filters = tuple(a.tensor.name for a in e.accesses if v in a.indices)
        loops.append(Loop(v, kind, filters, v in red_vars))

    workspace = None
    if out_fmt.has_sparse_levels:
        scattered = [
            o for o in e.output_indices if any(pos[r] < pos[o] for r in red_vars)
        ]
        if scattered:
            split_var = min((r for r in red_vars), key=lambda r: pos[r])
            workspace = WorkspacePlan(
                split_var=split_var,
                ws_indices=tuple(scattered),
                producer_loops=tuple(order[pos[split_var] :]),
                consumer_loops=tuple(scattered),
            )

    return Schedule(
        expr=e,
        out_format=out_fmt,
        loops=tuple(loops),
        access_formats=tuple(access_formats),
        workspace=workspace,
        moves=tuple(moves),
    )


def schedule_to_dict(s: Schedule) -> dict:
    """JSON-ready description of a schedule for reports and golden tests."""
    return {
        "loop_order": [l.var.name for l in s.loops],
        "loops": [
            {
                "var": l.var.name,
                "kind": l.kind.value,
                "filters": list(l.filters),
                "is_reduction": l.is_reduction,
            }
            for l in s.loops
        ],
        "transposes": [
            {"tensor": name, "mode_ordering": list(order)} for name, order in s.transposes
        ],
        "workspace": None
        if s.workspace is None
        else {
            "split_var": s.workspace.split_var.name,
            "indices": [v.name for v in s.workspace.ws_indices],
            "dimensions": s.workspace.dimensions,
            "producer_loops": [v.name for v in s.workspace.producer_loops],
            "consumer_loops": [v.name for v in s.workspace.consumer_loops],
        },
        "tiles": [v.name for v in s.tiles],
        "tile_size": s.tile_size,
        "out_format": s.out_format.name(),
        "moves": [
            {
                "var": m.var.name,
                "from": m.from_pos,
                "to": m.to_pos,
                "cost": m.cost,
                "components": dict(m.components),
                "accepted": m.accepted,
            }
            for m in s.moves
        ],
    }
