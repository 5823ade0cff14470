"""Typed AST for kernel programs. Expressions are affine in parameters and
loop variables (with * restricted by usage, not by the grammar)."""

from __future__ import annotations

from dataclasses import dataclass


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


def evaluate(expr: Expr, env: dict[str, int]) -> int:
    match expr:
        case Num(v):
            return v
        case Var(name):
            if name not in env:
                raise KeyError(f"unbound identifier '{name}'")
            return env[name]
        case BinOp(op, l, r):
            a, b = evaluate(l, env), evaluate(r, env)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if op == "//":
                return a // b
            if op == "%":
                return a % b
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
