"""Parser for kernel source (.kl files), a subset of Python.

A `kernel name(params):` header opens the kernel, whose body holds `range`
loops, `tensor`/`alloc` declarations and `copy`, `gemm` and vector-op calls
on names, indices and `lo:hi` slices of `+ - * // %` and unary-minus integer
expressions. The header keyword becomes `def` at the same width, `ast.parse`
reads the source, and the tree is converted node by node: anything outside
the subset raises `KernelSyntaxError` with its line and column.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import re
import warnings

from .ast import (
    AllocDecl, BinOp, Copy, ForLoop, Gemm, KernelProgram, Num, Slice, Stmt,
    TensorDecl, TileRef, VectorOp, Var, DTYPE_BYTES,
)
from ..logicsim import VECTOR_OP_FLOPS

_VECTOR_KINDS = tuple(k for k in VECTOR_OP_FLOPS if k != "copy")
_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.Mod: "%"}
_HEADER_KEYWORD = re.compile(r"^kernel(?=[ \t])", re.M)


class KernelSyntaxError(ValueError):
    def __init__(self, msg: str, line: int, col: int = 0):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col


class _Reject(Exception):
    """(message, Python node) of source outside the kernel subset."""


def _expr(node: ast.expr):
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return Num(node.value)
    if isinstance(node, ast.Name):
        return Var(node.id)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return BinOp(_BINOPS[type(node.op)], _expr(node.left), _expr(node.right))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return BinOp("-", Num(0), _expr(node.operand))
    raise _Reject("expected an integer expression of names, + - * // % and -", node)


def _index(node: ast.expr) -> Slice:
    if not isinstance(node, ast.Slice):
        lo = _expr(node)
        return Slice(lo, BinOp("+", lo, Num(1)))
    if node.lower is None or node.upper is None or node.step is not None:
        raise _Reject("a slice needs both bounds and no step (lo:hi)", node)
    return Slice(_expr(node.lower), _expr(node.upper))


def _ref(node: ast.expr, line: int) -> TileRef:
    if isinstance(node, ast.Name):
        return TileRef(node.id, (), line)
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
        dims = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        return TileRef(node.value.id, tuple(_index(d) for d in dims), line)
    raise _Reject("expected a tensor reference", node)


def _callee(node: ast.expr) -> str | None:
    return node.func.id if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) else None


def _args(call: ast.Call, lo: int, hi: int | None, keywords=()) -> tuple[list, dict]:
    name, n = call.func.id, len(call.args)
    if n < lo or (hi is not None and n > hi):
        want = lo if lo == hi else f"{lo}-{hi}" if hi else f"at least {lo}"
        raise _Reject(f"{name}() takes {want} arguments, got {n}", call)
    kwargs = {}
    for kw in call.keywords:
        if kw.arg not in keywords or kw.arg in kwargs:
            raise _Reject(f"unknown or repeated {name} argument {kw.arg!r}", kw)
        kwargs[kw.arg] = kw.value
    return call.args, kwargs


def _word(node: ast.expr, allowed) -> str:
    if ast.unparse(node) not in allowed:
        raise _Reject(f"expected one of {sorted(allowed)}, got {ast.unparse(node)!r}", node)
    return ast.unparse(node)


def _stmt(node: ast.stmt) -> Stmt:
    line = node.lineno
    if isinstance(node, ast.For):
        if not isinstance(node.target, ast.Name):
            raise _Reject("expected a loop variable", node.target)
        if _callee(node.iter) != "range" or node.orelse:
            raise _Reject("expected `for v in range(...):`", node.iter)
        args = _args(node.iter, 1, 3)[0]  # range(hi) starts at 0; step defaults to 1
        bounds = [Num(0)] * (len(args) == 1) + [_expr(a) for a in args] + [Num(1)]
        return ForLoop(node.target.id, *bounds[:3], _block(node.body), line)
    if isinstance(node, ast.Assign):
        prim = _callee(node.value)
        if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
            raise _Reject("expected `name = tensor(...)` or `name = alloc(...)`", node)
        if prim not in ("tensor", "alloc"):
            raise _Reject(f"expected tensor(...) or alloc(...), got {prim!r}", node.value)
        (shape, dtype), kwargs = _args(node.value, 2, 2, ("layout",) if prim == "tensor" else ())
        if not (isinstance(shape, ast.Tuple) and shape.elts):
            raise _Reject("shape must be a parenthesized tuple of dimensions", shape)
        name, dims = node.targets[0].id, tuple(_expr(d) for d in shape.elts)
        dtype = _word(dtype, DTYPE_BYTES)
        if prim == "alloc":
            return AllocDecl(name, dims, dtype, line)
        layout = kwargs.get("layout")
        return TensorDecl(name, dims, dtype, layout and _word(layout, ("row", "col")), line)
    prim = _callee(node.value) if isinstance(node, ast.Expr) else None
    if prim == "copy":
        return Copy(*(_ref(a, line) for a in _args(node.value, 2, 2)[0]), line)
    if prim == "gemm":
        operands, kwargs = _args(node.value, 3, 3, ("accumulate", "transpose_b"))
        flags = {k: _word(v, ("True", "False")) == "True" for k, v in kwargs.items()}
        return Gemm(*(_ref(o, line) for o in operands), flags.get("accumulate", False),
                    flags.get("transpose_b", False), line)
    if prim in _VECTOR_KINDS:
        refs = [_ref(a, line) for a in _args(node.value, 2, None)[0]]
        return VectorOp(prim, tuple(refs[:-1]), refs[-1], line)
    raise _Reject(f"unknown primitive {prim!r}" if prim else "expected a statement", node)


def _block(nodes: list[ast.stmt]) -> tuple[Stmt, ...]:
    stmts = []
    for node in nodes:
        try:
            stmts.append(_stmt(node))
        except RecursionError:
            raise _Reject("expression nested too deeply", node) from None
    return tuple(stmts)


def _program(module: ast.Module, header_lines: set[int]) -> KernelProgram:
    fn, *rest = module.body
    if not isinstance(fn, ast.FunctionDef) or fn.lineno not in header_lines:
        raise _Reject("expected `kernel name(params):` header", fn)
    if rest:  # a second kernel header, or a statement at column 0
        raise _Reject("statement outside the kernel body", rest[0])
    params = tuple(p.arg for p in fn.args.args)
    if fn.decorator_list or fn.returns or ast.unparse(fn.args) != ", ".join(params):
        raise _Reject("expected `kernel name(params):` with plain parameter names", fn)
    return KernelProgram(fn.name, params, _block(fn.body))


def _python_ast(source: str) -> ast.Module:
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a SyntaxWarning becomes a SyntaxError
        return ast.parse(source)


def _too_deep_line(source: str) -> int:
    """End line of the shortest prefix of `source` too deep for `ast.parse`."""
    lines = source.split("\n")
    for n in range(1, len(lines) + 1):
        try:
            _python_ast("\n".join(lines[:n]))
        except (RecursionError, MemoryError):
            return n
        except SyntaxError:
            pass
    return len(lines)


def parse_kernel(text: str) -> KernelProgram:
    """Parse kernel source into a KernelProgram (one kernel per source)."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")  # Python's line breaks
    if "\0" in text:
        raise KernelSyntaxError("null byte in source", text.count("\n", 0, text.index("\0")) + 1)
    header_lines = {text.count("\n", 0, m.start()) + 1 for m in _HEADER_KEYWORD.finditer(text)}
    source = _HEADER_KEYWORD.sub("def   ", text)
    try:
        module = _python_ast(source)
    except SyntaxError as e:  # IndentationError included
        raise KernelSyntaxError(e.msg, e.lineno or 1, e.offset or 0) from None
    except (RecursionError, MemoryError):  # depth limits of Python's parser
        raise KernelSyntaxError("expression nested too deeply", _too_deep_line(source)) from None
    if not module.body:
        raise KernelSyntaxError("empty kernel source", 1)
    try:
        return _program(module, header_lines)
    except _Reject as e:
        msg, node = e.args
        line = source.split("\n")[node.lineno - 1].encode()[:node.col_offset]
        raise KernelSyntaxError(msg, node.lineno, len(line.decode(errors="replace")) + 1) from None


def ast_to_json(prog: KernelProgram) -> str:
    """Stable JSON rendering of the AST for golden tests."""

    def convert(node):
        if dataclasses.is_dataclass(node):
            d = {"node": type(node).__name__}
            for f in dataclasses.fields(node):
                d[f.name] = convert(getattr(node, f.name))
            return d
        if isinstance(node, tuple):
            return [convert(x) for x in node]
        return node

    return json.dumps(convert(prog), indent=2, sort_keys=False)
