"""Line-oriented problem files.

One directive per line, "#" starts a comment, keys are case-sensitive.
Parsing is two-pass: declarations (dim, param) are collected first so the
remaining expressions all parse under one complete context, regardless of
the order directives appear in the file.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParseError, ValidationError
from .expr import ZERO, Context, Expr, _check_name, parse
from .forms import BERWALD, COORD, TwoForm, _accum
from .geometry import OneForm, SemiSpray, VectorField

__all__ = [
    "ProblemFile", "IntegrateSettings", "AnsatzSettings",
    "parse_problem_file", "load_problem_file",
]

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_HEAD_RE = re.compile(r"(.[^\s=]*)\s*(.*)")
# Largest dim a file may declare: the symbolic work grows with a high power
# of dim (analyze of a bare dim = 16 takes about half a second, dim = 32
# about five); every benchmark problem has dim <= 4.
MAX_DIM = 16
_PAIR_RE = re.compile(r"^(dx|dy|del)([0-9]+)\^(dx|dy|del)([0-9]+)$")
_ALLOWED_PAIRS = {("dx", "dx"), ("dx", "dy"), ("dy", "dy"),
                  ("dx", "del"), ("del", "del")}


@dataclass(frozen=True)
class IntegrateSettings:
    t: float
    dt: float
    method: str
    seed: int
    samples: int


@dataclass(frozen=True)
class AnsatzSettings:
    degree: int
    points: int
    box: float
    seed: int


@dataclass
class ProblemFile:
    """Parsed problem description plus the context everything parses in."""

    n: int
    context: Context
    G: tuple[Expr, ...]
    singular_loci: tuple[Expr, ...] = ()
    dist: list[VectorField] | None = None
    ann: list[OneForm] | None = None
    omega: TwoForm | None = None
    H: Expr | None = None
    integrate: IntegrateSettings | None = None
    ansatz: AnsatzSettings | None = None
    source: str = field(default="", repr=False)

    def semispray(self) -> SemiSpray:
        return SemiSpray(self.n, self.G, self.singular_loci)


def _strip(line: str) -> str:
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return line.strip()


def _number(text: str, ln: int) -> Fraction:
    """The exact value of a literal that fits in a double (finite, nonzero unless
    zero); float() reads it first, as Fraction expands 10**exp exactly."""
    try:
        approx = float(text if "/" not in text else Fraction(text))
        if not math.isfinite(approx) or (
                approx == 0 and Fraction(text.lower().partition("e")[0])):
            raise OverflowError
        value = Fraction(text) if approx else Fraction(0)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad numeric literal {text!r}", line=ln) from None
    except OverflowError:
        raise ParseError(f"numeric literal {text!r} does not fit in a double",
                         line=ln) from None
    return value


def _integer(text: str, what: str, ln: int) -> int:
    try:
        return int(text)
    except ValueError:   # past Python's int conversion limit, or not decimal
        raise ParseError(f"{what} is too long or not a decimal integer",
                         line=ln) from None


def _expr(text: str, ctx: Context, ln: int, parsed: dict[str, Expr]) -> Expr:
    """The tree of text under ctx, parsed once: parsed holds the trees of
    the texts already read under ctx, and a tree is immutable, so it is
    shared."""
    e = parsed.get(text)
    if e is None:
        try:
            e = parsed[text] = parse(text, ctx)
        except ParseError as err:
            raise ParseError(f"in expression {text!r}: {err.args[0]}", line=ln) from None
    return e


def _split_eq(body: str, ln: int, what: str) -> tuple[str, str]:
    if "=" not in body:
        raise ParseError(f"{what} needs '='", line=ln)
    lhs, rhs = body.split("=", 1)
    return lhs.strip(), rhs.strip()


def _indexed(label: str, prefix: str, ln: int) -> int:
    if not label.startswith(prefix) or not label[len(prefix):].isdigit():
        raise ParseError(f"expected {prefix}<index>, got {label!r}", line=ln)
    return int(label[len(prefix):])


def _component_lists(rhs: str, ctx: Context, n: int, ln: int, parsed: dict[str, Expr]
                     ) -> tuple[list[Expr], list[Expr]]:
    if not (rhs.startswith("(") and rhs.endswith(")")):
        raise ParseError("component list must be parenthesized", line=ln)
    inner = rhs[1:-1]
    if inner.count(";") != 1:
        raise ParseError("expected exactly one ';' separating the halves", line=ln)
    first, second = inner.split(";")
    out = []
    for half in (first, second):
        comps = [_expr(c.strip(), ctx, ln, parsed) for c in half.split(",")]
        if len(comps) != n:
            raise ParseError(f"expected {n} components, got {len(comps)}", line=ln)
        out.append(comps)
    return out[0], out[1]


def _kv_pairs(body: str, required: dict[str, str], what: str, ln: int) -> dict:
    got: dict[str, str] = {}
    for tok in body.split():
        if "=" not in tok:
            raise ParseError(f"{what} settings must be key=value, got {tok!r}", line=ln)
        k, v = tok.split("=", 1)
        if k not in required:
            raise ParseError(f"unknown {what} key {k!r}", line=ln)
        if k in got:
            raise ParseError(f"duplicate {what} key {k!r}", line=ln)
        got[k] = v
    missing = sorted(set(required) - set(got))
    if missing:
        raise ParseError(f"{what} missing keys: {', '.join(missing)}", line=ln)
    out = {}
    for k, kind in required.items():
        v = got[k]
        if kind == "int":
            if not re.fullmatch(r"[+-]?[0-9]+", v):
                raise ParseError(f"{what} {k} must be an integer, got {v!r}", line=ln)
            out[k] = _integer(v, f"{what} {k}", ln)
        elif kind == "real":
            out[k] = float(_number(v, ln))
        else:
            out[k] = v
    return out


def parse_problem_file(text: str) -> ProblemFile:
    lines = [(i + 1, _strip(raw)) for i, raw in enumerate(text.splitlines())]
    # a directive's name ends at the first whitespace or '=' after its first character
    lines = [(ln, *_HEAD_RE.fullmatch(s).groups()) for ln, s in lines if s]

    # pass 1: dimension and parameter declarations
    dim: int | None = None
    params: dict[str, object] = {}
    fn_bodies: list[tuple[int, str, str]] = []
    for ln, head, body in lines:
        if head == "dim":
            lhs, rhs = _split_eq(body, ln, "dim")
            if lhs:
                raise ParseError(f"unexpected text {lhs!r} before '='", line=ln)
            if dim is not None:
                raise ParseError("duplicate dim", line=ln)
            if not rhs.isdigit() or _integer(rhs, "dim", ln) < 1:
                raise ParseError(f"dim must be a positive integer, got {rhs!r}", line=ln)
            dim = int(rhs)
            if dim > MAX_DIM:
                raise ParseError(f"dim {dim} exceeds the bound MAX_DIM = {MAX_DIM}", line=ln)
        elif head == "param":
            name, rhs = _split_eq(body, ln, "param")
            if not _NAME_RE.match(name):
                raise ParseError(f"bad parameter name {name!r}", line=ln)
            if name in params or any(name == f for _, f, _ in fn_bodies):
                raise ParseError(f"duplicate param {name!r}", line=ln)
            try:
                _check_name(name)
            except ValidationError as e:
                raise ParseError(str(e), line=ln) from None
            if rhs.startswith("fn(") and rhs.endswith(")"):
                fn_bodies.append((ln, name, rhs[3:-1]))
            else:
                params[name] = _number(rhs, ln)
    if dim is None:
        raise ParseError("missing 'dim = <int>' declaration", line=1)

    ctx = Context(dim, params=dict(params))
    for ln, name, body in fn_bodies:
        body_ctx = Context(1, params=dict(ctx.params), funcs=dict(ctx.funcs))
        ctx.declare_function(name, _expr(body, body_ctx, ln, {}))

    # pass 2: everything else
    n = dim
    G: dict[int, Expr] = {}
    loci: list[Expr] = []
    dist: list[VectorField] = []
    ann: list[OneForm] = []
    omega_comps: dict[tuple[int, int], Expr] = {}
    seen_pairs: set[str] = set()
    basis_kind: str | None = None
    H: Expr | None = None
    integrate: IntegrateSettings | None = None
    ansatz: AnsatzSettings | None = None

    parsed: dict[str, Expr] = {}
    for ln, head, body in lines:
        if head in ("dim", "param"):
            continue
        elif head == "spray":
            label, rhs = _split_eq(body, ln, "spray")
            a = _indexed(label, "G", ln)
            if not 1 <= a <= n:
                raise ParseError(f"spray index {a} out of range 1..{n}", line=ln)
            if a in G:
                raise ParseError(f"duplicate spray G{a}", line=ln)
            G[a] = _expr(rhs, ctx, ln, parsed)
        elif head == "exclude":
            loci.append(_expr(body, ctx, ln, parsed))
        elif head in ("dist", "ann"):
            prefix, word, cls, gens = (("X", "distribution", VectorField, dist) if head == "dist"
                                       else ("A", "annihilator", OneForm, ann))
            label, rhs = _split_eq(body, ln, head)
            j = _indexed(label, prefix, ln)
            if j != len(gens) + 1:
                raise ParseError(f"{word} generators must be {prefix}1, {prefix}2, ...; "
                                 f"got {prefix}{j} in position {len(gens) + 1}", line=ln)
            gens.append(cls(n, *map(tuple, _component_lists(rhs, ctx, n, ln, parsed))))
        elif head == "omega":
            label, rhs = _split_eq(body, ln, "omega")
            m = _PAIR_RE.match(label)
            if not m:
                raise ParseError(f"bad basis pair {label!r}", line=ln)
            b1, i1, b2, i2 = m.group(1), int(m.group(2)), m.group(3), int(m.group(4))
            if (b1, b2) not in _ALLOWED_PAIRS:
                raise ParseError(f"basis pair {b1}^{b2} not allowed", line=ln)
            for b, i in ((b1, i1), (b2, i2)):
                if not 1 <= i <= n:
                    raise ParseError(f"{b}{i} index out of range 1..{n}", line=ln)
            kind = BERWALD if "del" in (b1, b2) else (
                COORD if "dy" in (b1, b2) else None)
            if kind is not None:
                if basis_kind is not None and basis_kind != kind:
                    raise ValidationError(
                        f"line {ln}: omega mixes dy- and del-basis terms; "
                        "use one fiber basis per file")
                basis_kind = kind
            if label in seen_pairs:
                raise ParseError(f"duplicate omega pair {label}", line=ln)
            seen_pairs.add(label)
            s1 = i1 - 1 if b1 == "dx" else n + i1 - 1
            s2 = i2 - 1 if b2 == "dx" else n + i2 - 1
            if s1 == s2:
                raise ParseError(f"degenerate pair {label}", line=ln)
            _accum(omega_comps, (s1, s2), _expr(rhs, ctx, ln, parsed))
        elif head == "H":
            lhs, rhs = _split_eq(body, ln, "H")
            if lhs:
                raise ParseError(f"unexpected text {lhs!r} before '='", line=ln)
            if H is not None:
                raise ParseError("duplicate H", line=ln)
            H = _expr(rhs, ctx, ln, parsed)
        elif head == "integrate":
            if integrate is not None:
                raise ParseError("duplicate integrate settings", line=ln)
            kv = _kv_pairs(body, {"t": "real", "dt": "real", "method": "str",
                                  "seed": "int", "samples": "int"},
                           "integrate", ln)
            if kv["method"] not in ("rk4", "rk45"):
                raise ParseError(f"method must be rk4 or rk45, got {kv['method']!r}",
                                 line=ln)
            if kv["dt"] <= 0 or kv["t"] <= 0 or kv["samples"] < 1 or kv["seed"] < 0:
                raise ParseError("integrate needs t > 0, dt > 0, samples >= 1, seed >= 0",
                                 line=ln)
            if not math.isfinite(kv["t"] / kv["dt"]):
                raise ParseError("integrate needs a finite step count t/dt", line=ln)
            integrate = IntegrateSettings(**kv)
        elif head == "ansatz":
            if ansatz is not None:
                raise ParseError("duplicate ansatz settings", line=ln)
            kv = _kv_pairs(body, {"degree": "int", "points": "int",
                                  "box": "real", "seed": "int"}, "ansatz", ln)
            if kv["degree"] < 0 or kv["box"] <= 0 or kv["seed"] < 0:
                raise ParseError("ansatz needs degree >= 0, box > 0 and seed >= 0",
                                 line=ln)
            ansatz = AnsatzSettings(**kv)
        else:
            raise ParseError(f"unknown directive {head!r}", line=ln)

    G_full = tuple(G.get(a, ZERO) for a in range(1, n + 1))
    # an omega line gives a form even where its terms cancel: dirac-check
    # gauges by it
    omega = TwoForm(n, omega_comps, basis_kind or COORD) if seen_pairs else None
    return ProblemFile(
        n=n, context=ctx, G=G_full, singular_loci=tuple(loci),
        dist=dist or None, ann=ann or None,
        omega=omega, H=H,
        integrate=integrate, ansatz=ansatz, source=text)


def load_problem_file(path: str) -> ProblemFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from None
    return parse_problem_file(text)
