"""Line-oriented parser for kernel source (.kl files).

One statement per line; blocks use Python-style `for v in range(lo, hi[, step]):`
headers with indentation. Slices use Python syntax: `A[i*tM:(i+1)*tM, k:k+tK]`.
"""

from __future__ import annotations

import dataclasses
import json
import re

from .ast import (
    AllocDecl, BinOp, Copy, ForLoop, Gemm, KernelProgram, Num, Slice, Stmt,
    TensorDecl, TileRef, VectorOp, Var, DTYPE_BYTES,
)
from ..logicsim import VECTOR_OP_FLOPS

_VECTOR_KINDS = tuple(k for k in VECTOR_OP_FLOPS if k != "copy")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_]\w*)|(?P<op>//|\*\*|[()\[\],:=+\-*%])|(?P<bad>\S))"
)


class KernelSyntaxError(ValueError):
    def __init__(self, msg: str, line: int, col: int = 0):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col


class _Tokens:
    def __init__(self, text: str, line: int):
        self.line = line
        self.toks: list[tuple[str, str, int]] = []
        for m in _TOKEN_RE.finditer(text):
            col = m.start() + 1
            if m.group("bad"):
                raise KernelSyntaxError(f"unexpected character {m.group('bad')!r}", line, col)
            for kind in ("num", "name", "op"):
                if m.group(kind):
                    self.toks.append((kind, m.group(kind), col))
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None, -1)

    def next(self):
        tok = self.peek()
        if tok[0] is None:
            raise KernelSyntaxError("unexpected end of line", self.line)
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val, col = self.next()
        if val != value:
            raise KernelSyntaxError(f"expected {value!r}, got {val!r}", self.line, col)

    def accept(self, value: str) -> bool:
        if self.peek()[1] == value:
            self.pos += 1
            return True
        return False

    def done(self) -> bool:
        return self.pos >= len(self.toks)


def _parse_expr(t: _Tokens):
    return _parse_sum(t)


def _parse_sum(t: _Tokens):
    node = _parse_product(t)
    while t.peek()[1] in ("+", "-"):
        op = t.next()[1]
        node = BinOp(op, node, _parse_product(t))
    return node


def _parse_product(t: _Tokens):
    node = _parse_atom(t)
    while t.peek()[1] in ("*", "//", "%"):
        op = t.next()[1]
        node = BinOp(op, node, _parse_atom(t))
    return node


def _parse_atom(t: _Tokens):
    kind, val, col = t.next()
    if kind == "num":
        return Num(int(val))
    if kind == "name":
        return Var(val)
    if val == "(":
        node = _parse_expr(t)
        t.expect(")")
        return node
    if val == "-":
        return BinOp("-", Num(0), _parse_atom(t))
    raise KernelSyntaxError(f"expected expression, got {val!r}", t.line, col)


def _parse_ref(t: _Tokens) -> TileRef:
    kind, name, col = t.next()
    if kind != "name":
        raise KernelSyntaxError(f"expected tensor reference, got {name!r}", t.line, col)
    indices: list[Slice] = []
    if t.accept("["):
        while True:
            lo = _parse_expr(t)
            if t.accept(":"):
                hi = _parse_expr(t)
                indices.append(Slice(lo, hi))
            else:
                indices.append(Slice(lo, BinOp("+", lo, Num(1))))
            if t.accept("]"):
                break
            t.expect(",")
    return TileRef(name, tuple(indices), line=t.line)


def _parse_shape(t: _Tokens) -> tuple:
    t.expect("(")
    dims = [_parse_expr(t)]
    while t.accept(","):
        if t.peek()[1] == ")":
            break
        dims.append(_parse_expr(t))
    t.expect(")")
    return tuple(dims)


def _parse_kwargs(t: _Tokens) -> dict:
    """Trailing `name=value` arguments (value: True/False/ident/expr)."""
    kwargs = {}
    while not t.done() and t.peek()[1] == ",":
        t.next()
        kind, key, col = t.next()
        if kind != "name":
            raise KernelSyntaxError(f"expected keyword argument, got {key!r}", t.line, col)
        t.expect("=")
        kind, val, col = t.next()
        if val in ("True", "False"):
            kwargs[key] = val == "True"
        elif kind in ("name", "num"):
            kwargs[key] = val
        else:
            raise KernelSyntaxError(f"bad keyword value {val!r}", t.line, col)
    return kwargs


def _parse_decl(name: str, prim: str, t: _Tokens, line: int) -> Stmt:
    t.expect("(")
    shape = _parse_shape(t)
    t.expect(",")
    kind, dtype, col = t.next()
    if dtype not in DTYPE_BYTES:
        raise KernelSyntaxError(
            f"unknown dtype {dtype!r} (expected one of {sorted(DTYPE_BYTES)})", line, col)
    kwargs = _parse_kwargs(t)
    t.expect(")")
    if prim == "tensor":
        layout = kwargs.pop("layout", None)
        if layout not in (None, "row", "col"):
            raise KernelSyntaxError(f"layout must be row or col, got {layout!r}", line)
        if kwargs:
            raise KernelSyntaxError(f"unknown tensor argument(s): {sorted(kwargs)}", line)
        return TensorDecl(name, shape, dtype, layout, line)
    if kwargs:
        raise KernelSyntaxError(f"unknown alloc argument(s): {sorted(kwargs)}", line)
    return AllocDecl(name, shape, dtype, line)


def _parse_statement(text: str, line: int) -> Stmt:
    t = _Tokens(text, line)
    kind, first, col = t.next()

    if first == "for":
        k, var, col = t.next()
        if k != "name":
            raise KernelSyntaxError("expected loop variable", line, col)
        t.expect("in")
        t.expect("range")
        t.expect("(")
        args = [_parse_expr(t)]
        while t.accept(","):
            args.append(_parse_expr(t))
        t.expect(")")
        t.expect(":")
        if len(args) == 1:
            lo, hi, step = Num(0), args[0], Num(1)
        elif len(args) == 2:
            lo, hi, step = args[0], args[1], Num(1)
        elif len(args) == 3:
            lo, hi, step = args
        else:
            raise KernelSyntaxError("range() takes 1-3 arguments", line)
        return ForLoop(var, lo, hi, step, (), line)

    if kind == "name" and t.peek()[1] == "=":
        t.next()
        k, prim, col = t.next()
        if prim not in ("tensor", "alloc"):
            raise KernelSyntaxError(
                f"unknown declaration primitive {prim!r} (expected tensor/alloc)", line, col)
        stmt = _parse_decl(first, prim, t, line)
        if not t.done():
            raise KernelSyntaxError(f"trailing tokens after declaration", line, t.peek()[2])
        return stmt

    if kind != "name":
        raise KernelSyntaxError(f"expected statement, got {first!r}", line, col)

    prim = first
    t.expect("(")
    if prim == "copy":
        src = _parse_ref(t)
        t.expect(",")
        dst = _parse_ref(t)
        t.expect(")")
        return Copy(src, dst, line)
    if prim == "gemm":
        a = _parse_ref(t)
        t.expect(",")
        b = _parse_ref(t)
        t.expect(",")
        out = _parse_ref(t)
        kwargs = _parse_kwargs(t)
        t.expect(")")
        acc = bool(kwargs.pop("accumulate", False))
        tb = bool(kwargs.pop("transpose_b", False))
        if kwargs:
            raise KernelSyntaxError(f"unknown gemm argument(s): {sorted(kwargs)}", line)
        return Gemm(a, b, out, acc, tb, line)
    if prim in _VECTOR_KINDS:
        refs = [_parse_ref(t)]
        while t.accept(","):
            refs.append(_parse_ref(t))
        t.expect(")")
        if len(refs) < 2:
            raise KernelSyntaxError(f"{prim}() needs operand(s) and an output", line)
        return VectorOp(prim, tuple(refs[:-1]), refs[-1], line)
    raise KernelSyntaxError(f"unknown primitive {prim!r}", line, col)


_HEADER_RE = re.compile(r"^kernel\s+([A-Za-z_]\w*)\s*\(([^)]*)\)\s*:\s*$")


def parse_kernel(text: str) -> KernelProgram:
    """Parse kernel source into a KernelProgram (one kernel per source)."""
    lines = text.splitlines()
    header = None
    body_lines: list[tuple[int, int, str]] = []  # (lineno, indent, text)
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        indent = len(stripped) - len(stripped.lstrip())
        content = stripped.strip()
        if header is None:
            m = _HEADER_RE.match(content)
            if not m:
                raise KernelSyntaxError("expected `kernel name(params):` header", lineno, 1)
            params = tuple(p.strip() for p in m.group(2).split(",") if p.strip())
            header = (m.group(1), params)
            continue
        if _HEADER_RE.match(content):
            raise KernelSyntaxError("multiple kernels per file are not supported", lineno, 1)
        body_lines.append((lineno, indent, content))
    if header is None:
        raise KernelSyntaxError("empty kernel source", max(len(lines), 1), 1)

    def parse_block(start: int, indent: int) -> tuple[tuple[Stmt, ...], int]:
        stmts: list[Stmt] = []
        i = start
        while i < len(body_lines):
            lineno, ind, content = body_lines[i]
            if ind < indent:
                break
            if ind > indent:
                raise KernelSyntaxError("unexpected indentation", lineno, ind + 1)
            stmt = _parse_statement(content, lineno)
            i += 1
            if isinstance(stmt, ForLoop):
                if i >= len(body_lines) or body_lines[i][1] <= indent:
                    raise KernelSyntaxError("empty for-loop body", lineno)
                body, i = parse_block(i, body_lines[i][1])
                stmt = dataclasses.replace(stmt, body=body)
            stmts.append(stmt)
        return tuple(stmts), i

    if not body_lines:
        raise KernelSyntaxError("kernel has no body", 1)
    body, consumed = parse_block(0, body_lines[0][1])
    if consumed != len(body_lines):
        lineno, ind, _ = body_lines[consumed]
        raise KernelSyntaxError("inconsistent indentation", lineno, ind + 1)
    name, params = header
    return KernelProgram(name, params, body)


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
