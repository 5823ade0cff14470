"""Typed AST for kernel programs. Expressions are affine in parameters and
loop variables (with * restricted by usage, not by the grammar)."""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, floordiv, mod, mul, sub


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * // %
    left: "Expr"
    right: "Expr"


Expr = Num | Var | BinOp


_ARITHMETIC = {"+": add, "-": sub, "*": mul, "//": floordiv, "%": mod}


def evaluate(expr: Expr, env: dict[str, int]) -> int:
    """The value of `expr` with its names taken from `env`."""
    cls = expr.__class__
    if cls is Var:
        try:
            return env[expr.name]
        except KeyError:
            raise KeyError(f"unbound identifier '{expr.name}'") from None
    if cls is Num:
        return expr.value
    if cls is BinOp:
        fn = _ARITHMETIC.get(expr.op)
        if fn is not None:
            return fn(evaluate(expr.left, env), evaluate(expr.right, env))
    raise TypeError(f"bad expression node: {expr!r}")


def free_vars(expr: Expr) -> set[str]:
    match expr:
        case Num(_):
            return set()
        case Var(name):
            return {name}
        case BinOp(_, l, r):
            return free_vars(l) | free_vars(r)
    raise TypeError(f"bad expression node: {expr!r}")


@dataclass(frozen=True)
class Slice:
    lo: Expr
    hi: Expr


@dataclass(frozen=True)
class TileRef:
    """Reference to a tensor/alloc, optionally sliced per dimension."""
    name: str
    indices: tuple[Slice, ...] = ()
    line: int = 0


@dataclass(frozen=True)
class TensorDecl:
    name: str
    shape: tuple[Expr, ...]
    dtype: str
    layout: str | None = None  # "row" | "col" | None (inferred later)
    line: int = 0


@dataclass(frozen=True)
class AllocDecl:
    name: str
    shape: tuple[Expr, ...]
    dtype: str
    line: int = 0


@dataclass(frozen=True)
class Copy:
    src: TileRef
    dst: TileRef
    line: int = 0


@dataclass(frozen=True)
class Gemm:
    a: TileRef
    b: TileRef
    out: TileRef
    accumulate: bool = False
    transpose_b: bool = False
    line: int = 0


@dataclass(frozen=True)
class VectorOp:
    kind: str
    operands: tuple[TileRef, ...]
    out: TileRef
    line: int = 0


@dataclass(frozen=True)
class ForLoop:
    var: str
    lo: Expr
    hi: Expr
    step: Expr
    body: tuple["Stmt", ...]
    line: int = 0


Stmt = TensorDecl | AllocDecl | Copy | Gemm | VectorOp | ForLoop


@dataclass(frozen=True)
class KernelProgram:
    name: str
    params: tuple[str, ...]
    body: tuple[Stmt, ...]


DTYPE_BYTES = {"fp16": 2, "fp32": 4, "int8": 1}
