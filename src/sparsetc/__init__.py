"""Sparse tensor algebra engine.

Compiles einsum-style expressions over mixed dense/sparse tensors into
scheduled loop nests (output format inference, asymptotically safe loop
ordering, workspace insertion, dense-loop tiling) and executes them by
format-specialized co-iteration with an instrumented operation counter.
"""

from .engine import OpCounter, Workspace, execute, run, run_with_report
from .expr import (
    Access,
    Add,
    IndexVar,
    Mul,
    ParseError,
    TensorExpr,
    get_index_variables,
    get_reduction_variables,
    parse,
    parse_einsum,
    render,
)
from .format_inference import LevelClass, explain_format, infer_format, infer_level
from .formats import (
    LevelFormat,
    TensorFormat,
    coo,
    csc,
    csr,
    dcsr,
    dense_format,
    format_by_name,
)
from .matrix_market import MatrixMarketError, read_matrix_market, write_matrix_market
from .oracle import eval_dense
from .scheduler import (
    CostModel,
    IterationKind,
    Loop,
    MoveRecord,
    Schedule,
    WorkspacePlan,
    move_cost,
    schedule,
    schedule_to_dict,
    sort_by_sparsity,
)
from .tensor import (
    ShapeError,
    Tensor,
    build_from_entries,
    convert,
    from_dense,
    nnz,
    to_dense,
)
from .tiling import DEFAULT_TILE_SIZE, expanded_loops, tile, tileable_vars

__version__ = "0.1.0"
