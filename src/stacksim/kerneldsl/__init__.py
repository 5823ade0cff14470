"""Tile-level kernel language: parsing, type checking, and trace expansion."""

from .ast import (  # noqa: F401
    AllocDecl, BinOp, Copy, ForLoop, Gemm, KernelProgram, Num, Stmt,
    TensorDecl, TileRef, VectorOp, Var,
)
from .parser import KernelSyntaxError, parse_kernel, ast_to_json  # noqa: F401
from .checker import CheckedProgram, TypecheckError, typecheck  # noqa: F401
from .trace import (  # noqa: F401
    DramAccess, MatrixWork, OpTrace, VectorWork, event_totals, expand,
)
