"""Selection of dense loops to tile and the tiled loop structure.

A loop is a tiling candidate when some access is reused across it, i.e.
the access's index set is a strict subset of the expression's. Candidates
are dropped if the variable is a sparse dimension of any tensor (tiling
sparse structures means expensive searches), if the loop sits above a
sparse loop in the nest (it would force re-walking sparse structures per
tile), or if it is an output loop of an output with sparse levels (its
hoisted block loop would revisit compressed output levels once per block,
and those only accept appends in order). Survivors split into a block loop
and an intra-block loop with boundary clamping.

Splits of output-index loops hoist their block loop outermost; splits of
reduction loops keep the block loop in place, directly above the intra
loop, and the engine runs the pair as one ascending range, so every
reduction accumulates in index order and tiled execution is bit-identical
to untiled execution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .expr import IndexVar, TensorExpr, get_index_variables
from .scheduler import Schedule

DEFAULT_TILE_SIZE = 64


def tileable_vars(e: TensorExpr, s: Schedule) -> tuple[IndexVar, ...]:
    """The working set of loops worth tiling, in loop order."""
    all_vars = set(get_index_variables(e))
    working: set[IndexVar] = set()
    accesses = [(a.tensor.format, tuple(a.indices)) for a in e.accesses]
    accesses.append((s.out_format, tuple(e.output_indices)))
    for _, idx in accesses:
        if set(idx) < all_vars:
            working |= set(idx)

    sparse_vars = {
        idx[d]
        for fmt, idx in accesses
        for d in range(len(idx))
        if fmt.dim_is_sparse(d)
    }
    working -= sparse_vars
    if s.out_format.has_sparse_levels:
        working -= set(e.output_indices)

    order = s.loop_order
    pos = {v: i for i, v in enumerate(order)}
    sparse_positions = [pos[v] for v in sparse_vars if v in pos]
    # An ancestor of a sparse loop is any loop with a sparse loop below it.
    working = {v for v in working if not any(pos[v] < sp for sp in sparse_positions)}
    return tuple(v for v in order if v in working)


def tile(e: TensorExpr, s: Schedule, tile_size: int = DEFAULT_TILE_SIZE) -> Schedule:
    """Rewrite a schedule with the selected loops split by ``tile_size``."""
    if tile_size < 1:
        raise ValueError(f"tile size must be >= 1, got {tile_size}")
    tiles = tileable_vars(e, s)
    return replace(s, tiles=tiles, tile_size=tile_size)


@dataclass(frozen=True)
class LoopStep:
    """One loop of the executed nest: a plain loop, or half of a split one."""

    var: IndexVar
    role: str  # "full" | "block" | "intra"


def expanded_loops(s: Schedule) -> tuple[LoopStep, ...]:
    """The concrete nest the engine runs, with tiled loops split.

    Block loops of output variables are hoisted to the front in pre-tiling
    order; block loops of reduction variables stay adjacent to their intra
    loops so summation order is preserved.
    """
    order = s.loop_order
    if not s.tiles:
        return tuple(LoopStep(v, "full") for v in order)
    tiled = set(s.tiles)
    out_vars = set(s.expr.output_indices)
    steps: list[LoopStep] = [
        LoopStep(v, "block") for v in order if v in tiled and v in out_vars
    ]
    for v in order:
        if v not in tiled:
            steps.append(LoopStep(v, "full"))
        elif v in out_vars:
            steps.append(LoopStep(v, "intra"))
        else:
            steps.append(LoopStep(v, "block"))
            steps.append(LoopStep(v, "intra"))
    return tuple(steps)
