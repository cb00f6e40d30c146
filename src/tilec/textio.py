"""Textual IR: an MLIR-flavored format with tt./arith./scf./math. dialect
prefixes.

The printer is canonicalizing: SSA values are renumbered (%0, %1, ...) while
function and argument names are preserved, attrs print in sorted key order,
and layout encodings are hash-consed into alias definitions (#blocked, #dot0,
...) emitted parent-first in first-use order.  print(parse(print(m))) ==
print(m) for any verified module.  The grammar ships in docs/grammar.md.

The parser lexes the whole text in one regex pass into (kind, text, offset)
tokens; a ParseError turns its offset into a line and column only when it
is raised.  A whole `tensor<...>` or `!tt.ptr<...>` spelling is one `type`
token when its body holds only letters, digits, `_`, `.`, `,`, `#` and
whitespace, so a type with a comment inside lexes token by token.  The type
memo is keyed on a type token's text: within one parse_module call, each
distinct text is parsed once, by lexing its slice into tokens in place, and
the (immutable) type is shared by every later token with that text; an alias
definition empties the memo.  A type token met where no type may stand is
cut into its tokens before the parser reads it, so errors name the same
token as if it had been lexed token by token; only a character the lexer
rejects inside a type token is reported late, when that token is parsed.
The printer keeps one string per type object for one print_module call.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable, TypeVar

from .ir import (
    ElemType,
    KernelFn,
    KernelModule,
    Operation,
    PtrType,
    Region,
    TensorType,
    Type,
    Value,
    scalar,
)
from .layouts import BlockedEncoding, DotOperandEncoding, LayoutEncoding, LayoutError, SliceEncoding


class ParseError(ValueError):
    """A syntax error at an offset into the source text; its line and column
    are counted only when the error is raised."""

    def __init__(self, message: str, text: str, offset: int):
        self.line = text.count("\n", 0, offset) + 1
        self.col = offset - text.rfind("\n", 0, offset)
        super().__init__(f"line {self.line}, col {self.col}: {message}")


# --------------------------------------------------------------------------
# printing


class _EncodingTable:
    """Assigns stable alias names, parents before children."""

    def __init__(self) -> None:
        self.names: dict[LayoutEncoding, str] = {}
        self.defs: list[tuple[str, LayoutEncoding]] = []
        self._counts: dict[str, int] = {}

    def name_of(self, enc: LayoutEncoding) -> str:
        if enc in self.names:
            return self.names[enc]
        if isinstance(enc, BlockedEncoding):
            base = "blocked"
        elif isinstance(enc, DotOperandEncoding):
            parent = self.name_of(enc.parent)
            digits = str(enc.op_idx)
            if isinstance(enc.parent, DotOperandEncoding):
                digits += parent[len("dot"):].replace("#", "")
            base = "dot" + digits
        elif isinstance(enc, SliceEncoding):
            self.name_of(enc.parent)
            base = "slice"
        else:
            raise TypeError(f"unknown encoding {enc!r}")
        n = self._counts.get(base, 0)
        self._counts[base] = n + 1
        name = base if n == 0 else (f"{base}{n}" if base in ("blocked", "slice") else f"{base}_{n}")
        self.names[enc] = name
        self.defs.append((name, enc))
        return name

    def def_line(self, name: str, enc: LayoutEncoding) -> str:
        if isinstance(enc, BlockedEncoding):
            body = (
                f"sizePerWarp = {list(enc.size_per_warp)}, "
                f"warpsPerCTA = {list(enc.warps_per_cta)}, "
                f"order = {list(enc.order)}"
            )
            return f"#{name} = #triton_gpu.blocked<{{{body}}}>"
        if isinstance(enc, DotOperandEncoding):
            return f"#{name} = #triton_gpu.dot_op<{{opIdx = {enc.op_idx}, parent = #{self.names[enc.parent]}}}>"
        return f"#{name} = #triton_gpu.slice<{{dim = {enc.dim}, parent = #{self.names[enc.parent]}}}>"


def _fmt_attr_value(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, str):
        return f'"{v}"'
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    raise TypeError(f"unprintable attr value {v!r}")


def _fmt_attrs(attrs: dict[str, Any]) -> str:
    items = ", ".join(f"{k} = {_fmt_attr_value(attrs[k])}" for k in sorted(attrs))
    return "{" + items + "}"


class _Printer:
    def __init__(self) -> None:
        self.enc = _EncodingTable()
        self.spelled: dict[int, str] = {}  # id of a type -> its text

    def type_str(self, t: Type) -> str:
        text = self.spelled.get(id(t))
        if text is None:
            text = self.spelled[id(t)] = self._spell(t)
        return text

    def _spell(self, t: Type) -> str:
        if isinstance(t, PtrType):
            if t.is_block:
                return f"!tt.ptr<{self.type_str(t.pointee)}>"
            return f"!tt.ptr<{t.pointee.value}>"
        assert isinstance(t, TensorType)
        if t.rank == 0:
            return t.elem.value
        dims = "x".join(str(d) for d in t.shape)
        if t.encoding is None:
            return f"tensor<{dims}x{t.elem.value}>"
        return f"tensor<{dims}x{t.elem.value}, #{self.enc.name_of(t.encoding)}>"

    def print_module(self, m: KernelModule) -> str:
        body_chunks: list[str] = []
        for fn in m.functions:
            body_chunks.append(self._print_fn(fn))
        header = "\n".join(self.enc.def_line(n, e) for n, e in self.enc.defs)
        parts = [p for p in ([header] if header else []) + body_chunks]
        return "\n\n".join(parts) + "\n"

    def _print_fn(self, fn: KernelFn) -> str:
        self.names: dict[int, str] = {}
        self.counter = 0
        # touch types in signature order so alias numbering follows the text
        args = ", ".join(f"%{a.name}: {self.type_str(a.type)}" for a in fn.args)
        for a in fn.args:
            self.names[id(a)] = f"%{a.name}"
        attrs: dict[str, Any] = {"num_warps": fn.num_warps}
        if fn.level != "workgroup":
            attrs["level"] = fn.level
        lines = [f"tt.func public @{fn.name}({args}) attributes {_fmt_attrs(attrs)} {{"]
        self._print_region(fn.body, lines, "  ")
        lines.append("}")
        return "\n".join(lines)

    def _new_name(self, v: Value) -> str:
        name = f"%{self.counter}"
        self.counter += 1
        self.names[id(v)] = name
        return name

    def _ref(self, v: Value) -> str:
        return self.names[id(v)]

    def _print_region(self, region: Region, lines: list[str], indent: str) -> None:
        for op in region.ops:
            self._print_op(op, lines, indent)

    def _print_op(self, op: Operation, lines: list[str], indent: str) -> None:
        k = op.kind
        if k == "scf.for":
            results = ", ".join(self._new_name(r) for r in op.results)
            body = op.regions[0]
            iv = self._new_name(body.args[0])
            head = f"scf.for {iv} = {self._ref(op.operands[0])} to {self._ref(op.operands[1])} step {self._ref(op.operands[2])}"
            if results:
                head = f"{results} = {head}"
            inits = op.operands[3:]
            if inits:
                pairs = ", ".join(
                    f"{self._new_name(a)} = {self._ref(v)}" for a, v in zip(body.args[1:], inits)
                )
                types = ", ".join(self.type_str(v.type) for v in inits)
                head += f" iter_args({pairs}) -> ({types})"
            lines.append(indent + head + " {")
            self._print_region(body, lines, indent + "  ")
            lines.append(indent + "}")
            return
        if k == "scf.if":
            lines.append(indent + f"scf.if {self._ref(op.operands[0])} {{")
            self._print_region(op.regions[0], lines, indent + "  ")
            lines.append(indent + "}")
            return
        if k == "scf.yield":
            ops_s = ", ".join(self._ref(v) for v in op.operands)
            lines.append(indent + ("scf.yield " + ops_s if ops_s else "scf.yield"))
            return

        results = ", ".join(self._new_name(r) for r in op.results)
        parts = [k]
        if op.operands:
            parts.append(" " + ", ".join(self._ref(v) for v in op.operands))
        if op.attrs:
            parts.append(" " + _fmt_attrs(op.attrs))
        if op.operands or op.results:
            in_t = ", ".join(self.type_str(v.type) for v in op.operands)
            if len(op.results) == 1:
                out_t = self.type_str(op.results[0].type)
            else:
                out_t = "(" + ", ".join(self.type_str(r.type) for r in op.results) + ")"
            parts.append(f" : ({in_t}) -> {out_t}")
        text = "".join(parts)
        if results:
            text = f"{results} = {text}"
        lines.append(indent + text)


def print_module(m: KernelModule) -> str:
    return _Printer().print_module(m)


# --------------------------------------------------------------------------
# lexing

# Whitespace and comments are folded into the match of the token after them.
# A `dim` is an integer with the `x` that follows it: `256x32xf16` lexes as
# dim 256, dim 32, ident f16.  The `x` must touch an identifier character,
# except where the integer itself directly follows a dim's `x`.  A `type` is a
# whole tensor or pointer type spelled with only the characters a type holds.
_SKIP = r"(?:[ \t\n]|//[^\n]*)*"
_TYPE_BODY = r"[A-Za-z0-9_.,# \t\n]*"
_TOKEN_RE = re.compile(
    rf"""{_SKIP}(?:
        (?P<type>tensor<{_TYPE_BODY}>|!tt\.ptr<(?:tensor<{_TYPE_BODY}>|{_TYPE_BODY})>)
      | (?P<punct>[()\[\]{{}}<>,=:!])
      | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*)
      | (?P<dim>-?\d+(?={_SKIP}x[A-Za-z0-9_.])|(?<=x)\d+(?=x)){_SKIP}x
      | (?P<value>%[A-Za-z0-9_]+)
      | (?P<number>-?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)
      | (?P<arrow>->)
      | (?P<alias>\#[A-Za-z0-9_.]+)
      | (?P<string>"[^"\n]*")
      | (?P<symbol>@[A-Za-z0-9_]+)
      | (?P<eof>\Z)
      | (?P<bad>.)
    )""",
    re.VERBOSE,
)
_Token = tuple[str, str, int]  # kind, text, offset into the source


def _lex(text: str, start: int = 0, end: int | None = None) -> list[_Token]:
    """The tokens of text[start:end], the last one `eof` at `end`."""
    found = _TOKEN_RE.finditer(text, start, len(text) if end is None else end)
    toks = [(k, m[k], m.start(k)) for m in found for k in (m.lastgroup,)]
    for kind, tok, off in toks:
        if kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", text, off)
    return toks


# --------------------------------------------------------------------------
# parsing


_ELEMS = {e.value: e for e in ElemType}
_T = TypeVar("_T")
_KIND_NAMES = {int: "an integer", list: "a list of integers", str: "an alias"}
# the parameters of each encoding, as the printer writes them
_ENCODING_KEYS = {
    "#triton_gpu.blocked": ("sizePerWarp", "warpsPerCTA", "order"),
    "#triton_gpu.dot_op": ("opIdx", "parent"),
    "#triton_gpu.slice": ("dim", "parent"),
}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _lex(text)
        self.pos = 0
        self.aliases: dict[str, LayoutEncoding] = {}
        # text of a type token -> its type; emptied by an alias definition
        self.types: dict[str, Type] = {}

    # token plumbing ------------------------------------------------------
    def bump(self) -> _Token:
        self.pos += 1
        return self.toks[self.pos - 1]

    def split(self) -> None:
        """Replace the type token at pos by the tokens of its slice: those
        before its closing `>`, which cannot lex as that one type again,
        then the `>`.  `accept` never needs it: outside `_type`, nothing it
        asks for is the first token of a type."""
        _, text, off = self.toks[self.pos]
        end = off + len(text) - 1
        self.toks[self.pos:self.pos + 1] = _lex(self.text, off, end)[:-1] + [("punct", ">", end)]

    def fail(self, msg: str, tok: _Token) -> ParseError:
        return ParseError(msg, self.text, tok[2])

    def error(self, msg: str) -> ParseError:
        if self.toks[self.pos][0] == "type":
            self.split()
        t = self.toks[self.pos]
        return self.fail(f"{msg} (got {t[1] or '<eof>'!r})", t)

    def expect(self, kind: str, text: str | None = None) -> _Token:
        t = self.toks[self.pos]
        if t[0] != kind or (text is not None and t[1] != text):
            if t[0] == "type":
                self.split()
                return self.expect(kind, text)
            raise self.error(f"expected {text or kind}")
        self.pos += 1
        return t

    def accept(self, kind: str, text: str | None = None) -> _Token | None:
        t = self.toks[self.pos]
        if t[0] == kind and (text is None or t[1] == text):
            self.pos += 1
            return t
        return None

    def parse_list(self, close: str, item: Callable[[], _T]) -> list[_T]:
        """Items up to the `close` punct, a comma between each two; the
        opening punct is already consumed."""
        items: list[_T] = []
        if not self.accept("punct", close):
            items.append(item())
            while not self.accept("punct", close):
                if not self.accept("punct", ","):
                    raise self.error(f"expected , or {close}")
                items.append(item())
        return items

    def _at_results_header(self) -> bool:
        """True if the tokens ahead read `%a (, %b)* =`, i.e. the next op's
        result list rather than operands of the op being parsed."""
        toks, i = self.toks, self.pos + 1
        while toks[i][1] == ",":
            if toks[i + 1][0] != "value":
                return False
            i += 2
        return toks[i][1] == "="

    # module --------------------------------------------------------------
    def parse_module(self) -> KernelModule:
        fns: list[KernelFn] = []
        while (t := self.toks[self.pos])[0] != "eof":
            if t[0] == "alias":
                self.parse_alias_def()
            elif t[1] == "tt.func":
                fns.append(self.parse_fn())
            else:
                raise self.error("expected encoding alias or tt.func")
        return KernelModule(fns)

    def parse_alias_def(self) -> None:
        name = self.bump()[1][1:]
        self.expect("punct", "=")
        head = self.expect("alias")
        if head[1] not in _ENCODING_KEYS:
            raise self.fail(f"unknown encoding {head[1]}", head)
        self.expect("punct", "<")
        where: dict[str, _Token] = {}
        params = self.parse_attr_dict(where, _ENCODING_KEYS[head[1]])
        self.expect("punct", ">")

        def param(key: str, kind: type) -> Any:
            if key not in params:
                raise self.fail(f"{head[1]} needs {key}", head)
            if type(params[key]) is not kind:
                raise self.fail(f"{key} must be {_KIND_NAMES[kind]}", where[key])
            return params[key]

        try:
            if head[1] == "#triton_gpu.blocked":
                enc: LayoutEncoding = BlockedEncoding(
                    tuple(param("sizePerWarp", list)), tuple(param("warpsPerCTA", list)), tuple(param("order", list))
                )
            elif head[1] == "#triton_gpu.dot_op":
                enc = DotOperandEncoding(param("opIdx", int), self.resolve_alias(param("parent", str), head))
            else:
                enc = SliceEncoding(param("dim", int), self.resolve_alias(param("parent", str), head))
        except LayoutError as e:
            raise self.fail(str(e), head) from None
        self.aliases[name] = enc
        self.types.clear()

    def resolve_alias(self, name: str, tok: _Token) -> LayoutEncoding:
        if name not in self.aliases:
            raise self.fail(f"unknown encoding alias #{name}", tok)
        return self.aliases[name]

    def parse_attr_value(self) -> Any:
        kind, text, _ = tok = self.bump()
        if kind == "number":
            if text.lstrip("-").isdigit():
                return int(text)
            if math.isinf(value := float(text)):
                raise self.fail(f"float literal {text} overflows f64", tok)
            return value
        if kind == "string":
            return text[1:-1]
        if kind == "alias":
            return text[1:]
        if text in ("true", "false") and kind == "ident":
            return text == "true"
        if text == "[":
            return self.parse_list("]", self.parse_int)
        self.pos -= 1
        raise self.error("expected attribute value")

    def parse_int(self) -> int:
        n = self.expect("number")
        if not n[1].lstrip("-").isdigit():
            raise self.fail(f"expected an integer, got {n[1]}", n)
        return int(n[1])

    # types ---------------------------------------------------------------
    def parse_type(self) -> Type:
        """A type.  A type token whose text was parsed before in this
        module, since the last alias definition, is reused."""
        kind, text, _ = self.toks[self.pos]
        if kind != "type":
            return self._type()
        hit = self.types.get(text)
        if hit is None:
            self.split()
            hit = self.types[text] = self._type()
        else:
            self.pos += 1
        return hit

    def parse_types(self) -> list[Type]:
        self.expect("punct", "(")
        return self.parse_list(")", self.parse_type)

    def _type(self) -> Type:
        t = self.toks[self.pos]
        if self.accept("punct", "!"):
            head = self.expect("ident")
            if head[1] != "tt.ptr":
                raise self.fail(f"unknown type !{head[1]}", head)
            self.expect("punct", "<")
            inner: Any
            if self.toks[self.pos][1] in _ELEMS:
                inner = _ELEMS[self.bump()[1]]
            else:
                inner = self.parse_type()
                if not isinstance(inner, TensorType) or inner.rank == 0:
                    raise self.fail("pointer pointee must be an element type or ranked tensor", t)
            self.expect("punct", ">")
            return PtrType(inner)
        if self.accept("ident", "tensor"):
            self.expect("punct", "<")
            dims: list[int] = []
            while self.toks[self.pos][0] == "dim":
                dims.append(int(self.bump()[1]))
            if self.accept("number"):  # a dimension without its x
                raise self.error("expected x")
            elem_tok = self.expect("ident")
            if elem_tok[1] not in _ELEMS:
                raise self.fail(f"unknown element type {elem_tok[1]}", elem_tok)
            encoding = None
            if self.accept("punct", ","):
                al = self.expect("alias")
                encoding = self.resolve_alias(al[1][1:], al)
            self.expect("punct", ">")
            try:
                return TensorType(tuple(dims), _ELEMS[elem_tok[1]], encoding)
            except ValueError as e:
                raise self.fail(str(e), t) from None
        if t[0] == "ident" and t[1] in _ELEMS:
            self.pos += 1
            return scalar(_ELEMS[t[1]])
        raise self.error("expected a type")

    # functions -----------------------------------------------------------
    def parse_fn(self) -> KernelFn:
        self.expect("ident", "tt.func")
        self.expect("ident", "public")
        name = self.expect("symbol")[1][1:]
        self.expect("punct", "(")

        def arg() -> tuple[str, Type]:
            v = self.expect("value")
            self.expect("punct", ":")
            return v[1][1:], self.parse_type()

        args = self.parse_list(")", arg)
        where: dict[str, _Token] = {}
        attrs = self.parse_attr_dict(where, ("num_warps", "level")) if self.accept("ident", "attributes") else {}
        num_warps = attrs.get("num_warps", 1)
        if type(num_warps) is not int:
            raise self.fail("num_warps must be an integer", where["num_warps"])
        level = attrs.get("level", "workgroup")
        if type(level) is not str:
            raise self.fail("level must be a string", where["level"])
        fn = KernelFn(name, args, num_warps=num_warps, level=level)
        env: dict[str, Value] = {a.name: a for a in fn.args}
        self.expect("punct", "{")
        self.parse_region_ops(fn.body, env)
        self.expect("punct", "}")
        return fn

    def parse_attr_dict(self, where: dict[str, _Token] | None = None, keys: tuple[str, ...] = ()) -> dict[str, Any]:
        """An attribute dict; `where`, when given, gets each value's first
        token.  A key outside `keys`, when given, fails at the key."""
        self.expect("punct", "{")
        seen: set[str] = set()

        def item() -> tuple[str, Any]:
            key_tok = self.expect("ident")
            key = key_tok[1]
            if keys and key not in keys:
                raise self.fail(f"unknown attribute {key}; expected one of {', '.join(keys)}", key_tok)
            if key in seen:
                raise self.fail(f"repeated attribute {key}", key_tok)
            seen.add(key)
            self.expect("punct", "=")
            if where is not None:
                where[key] = self.toks[self.pos]
            return key, self.parse_attr_value()

        return dict(self.parse_list("}", item))

    def define(self, env: dict[str, Value], name_tok: _Token, value: Value) -> None:
        name = name_tok[1][1:]
        if name in env:
            raise self.fail(f"redefinition of %{name}", name_tok)
        value.name = name
        env[name] = value

    def lookup(self, env: dict[str, Value], tok: _Token) -> Value:
        v = env.get(tok[1][1:])
        if v is None:
            raise self.fail(f"use of undefined value {tok[1]}", tok)
        return v

    def parse_region_ops(self, region: Region, env: dict[str, Value]) -> None:
        while (t := self.toks[self.pos])[1] != "}" and t[0] != "eof":
            self.parse_op(region, env)

    def parse_op(self, region: Region, env: dict[str, Value]) -> None:
        toks = self.toks
        result_toks: list[_Token] = []
        if toks[self.pos][0] == "value":
            result_toks.append(self.bump())
            while self.accept("punct", ","):
                result_toks.append(self.expect("value"))
            self.expect("punct", "=")
        kind_tok = self.expect("ident")
        kind = kind_tok[1]
        if kind == "scf.for":
            self.parse_for(region, env, result_toks)
            return
        if kind == "scf.if":
            if result_toks:
                raise self.fail("scf.if has no results", kind_tok)
            cond = self.lookup(env, self.expect("value"))
            body = Region()
            op = Operation("scf.if", [cond], {}, [], [body])
            region.ops.append(op)
            self.expect("punct", "{")
            self.parse_region_ops(body, dict(env))
            self.expect("punct", "}")
            return

        operand_toks: list[_Token] = []
        if toks[self.pos][0] == "value" and not self._at_results_header():
            operand_toks.append(self.bump())
            while self.accept("punct", ","):
                operand_toks.append(self.expect("value"))
            if toks[self.pos][0] == "value" and not self._at_results_header():
                raise self.error("expected , between operands")
        if kind == "scf.yield":
            region.ops.append(Operation("scf.yield", [self.lookup(env, t) for t in operand_toks]))
            return
        attrs: dict[str, Any] = {}
        if toks[self.pos][1] == "{":
            attrs = self.parse_attr_dict()
        in_types: list[Type] = []
        out_types: list[Type] = []
        if self.accept("punct", ":"):
            in_types = self.parse_types()
            self.expect("arrow")
            out_types = self.parse_types() if toks[self.pos][1] == "(" else [self.parse_type()]
        operands = [self.lookup(env, t) for t in operand_toks]
        if len(in_types) != len(operands):
            raise self.fail(f"{kind}: {len(operands)} operands but {len(in_types)} operand types", kind_tok)
        for tok, v, t in zip(operand_toks, operands, in_types):
            if v.type != t:
                raise self.fail(f"{tok[1]} has type {_type_desc(v.type)}, clause says {_type_desc(t)}", tok)
        if len(result_toks) != len(out_types):
            raise self.fail(f"{kind}: {len(result_toks)} results named but {len(out_types)} result types", kind_tok)
        op = Operation(kind, operands, attrs, out_types)
        region.ops.append(op)
        for tok, r in zip(result_toks, op.results):
            self.define(env, tok, r)

    def parse_for(self, region: Region, env: dict[str, Value], result_toks: list[_Token]) -> None:
        iv_tok = self.expect("value")
        self.expect("punct", "=")
        lb = self.lookup(env, self.expect("value"))
        self.expect("ident", "to")
        ub = self.lookup(env, self.expect("value"))
        self.expect("ident", "step")
        step = self.lookup(env, self.expect("value"))
        inits: list[Value] = []
        arg_toks: list[_Token] = []
        res_types: list[Type] = []
        if self.accept("ident", "iter_args"):
            self.expect("punct", "(")

            def init() -> Value:
                arg_toks.append(self.expect("value"))
                self.expect("punct", "=")
                return self.lookup(env, self.expect("value"))

            inits = self.parse_list(")", init)
            self.expect("arrow")
            res_types = self.parse_types()
        if len(res_types) != len(inits):
            raise self.fail("iter_args and result types disagree", iv_tok)
        body = Region([Value(scalar(ElemType.i32))] + [Value(t) for t in res_types])
        op = Operation("scf.for", [lb, ub, step, *inits], {}, res_types, [body])
        region.ops.append(op)
        inner = dict(env)
        self.define(inner, iv_tok, body.args[0])
        for tok, arg in zip(arg_toks, body.args[1:]):
            self.define(inner, tok, arg)
        self.expect("punct", "{")
        self.parse_region_ops(body, inner)
        self.expect("punct", "}")
        for tok, r in zip(result_toks, op.results):
            self.define(env, tok, r)
        if len(result_toks) != len(op.results):
            raise self.fail("loop result names and iter args disagree", iv_tok)


def _type_desc(t: Type) -> str:
    return _Printer().type_str(t)


def parse_module(text: str) -> KernelModule:
    return _Parser(text).parse_module()
