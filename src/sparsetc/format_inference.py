"""Per-dimension inference of the output tensor's storage format.

Each output index is classified independently by a recursive walk of the
expression: multiplying a sparse level by anything gives a sparse level,
adding a dense level to anything gives a dense level. Operands that do not
contain the index at all are neutral. The choice is conservative: adding
two sparse levels stays sparse even though the result is their union,
because a dense output can blow up memory asymptotically while a sparse
one costs only a constant factor.
"""

from __future__ import annotations

import enum

from .expr import Access, IndexVar, Mul, Node, TensorExpr, index_extents
from .formats import LevelFormat, TensorFormat


class LevelClass(enum.Enum):
    DENSE = "dense"
    SPARSE = "sparse"
    ABSENT = "absent"


def infer_level(rhs: Node, lvl: IndexVar) -> LevelClass:
    """Classify one index variable over an expression subtree."""
    if isinstance(rhs, Access):
        if lvl not in rhs.indices:
            return LevelClass.ABSENT
        sparse = rhs.tensor.format.dim_is_sparse(rhs.indices.index(lvl))
        return LevelClass.SPARSE if sparse else LevelClass.DENSE
    a, b = infer_level(rhs.lhs, lvl), infer_level(rhs.rhs, lvl)
    if isinstance(rhs, Mul):
        if LevelClass.SPARSE in (a, b):
            return LevelClass.SPARSE
        if LevelClass.DENSE in (a, b):
            return LevelClass.DENSE
        return LevelClass.ABSENT
    # Add
    if LevelClass.DENSE in (a, b):
        return LevelClass.DENSE
    if LevelClass.SPARSE in (a, b):
        return LevelClass.SPARSE
    return LevelClass.ABSENT


def infer_format(e: TensorExpr) -> TensorFormat:
    """Infer the output format: one level per output index, in output order.

    Sparse levels realize as compressed storage; the mode ordering is the
    output index order as written.
    """
    extents = index_extents(e)
    levels = []
    for v in e.output_indices:
        cls = infer_level(e.rhs, v)
        levels.append(LevelFormat.COMPRESSED if cls is LevelClass.SPARSE else LevelFormat.DENSE)
    shape = tuple(extents[v] for v in e.output_indices)
    return TensorFormat(shape, tuple(range(len(shape))), tuple(levels))


def explain_format(e: TensorExpr) -> dict:
    """A JSON-ready derivation tree of the per-level inference."""

    def derive(node: Node, lvl: IndexVar) -> dict:
        if isinstance(node, Access):
            cls = infer_level(node, lvl)
            entry = {"access": node.name, "result": cls.value}
            if cls is not LevelClass.ABSENT:
                dim = node.indices.index(lvl)
                entry["level"] = node.tensor.format.levels[
                    node.tensor.format.level_of_dim(dim)
                ].value
            return entry
        return {
            "op": "mul" if isinstance(node, Mul) else "add",
            "result": infer_level(node, lvl).value,
            "children": [derive(node.lhs, lvl), derive(node.rhs, lvl)],
        }

    fmt = infer_format(e)
    return {
        "output": e.output_name,
        "format": fmt.name(),
        "levels": [
            {
                "index": v.name,
                "result": infer_level(e.rhs, v).value,
                "storage": fmt.levels[k].value,
                "derivation": derive(e.rhs, v),
            }
            for k, v in enumerate(e.output_indices)
        ],
    }
