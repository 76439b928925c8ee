"""The memoised sampler streams of sample_points and is_zero against a cold
reference: one rng.random call per point, a fresh rng on every call."""

import contextlib
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from spraydirac import expr  # noqa: E402
from spraydirac.errors import EvalDomainError, ValidationError  # noqa: E402
from spraydirac.expr import (  # noqa: E402
    Call, Context, Point, SampleConfig, Tri, clear_caches, is_zero, parse, sample_points,
)


# -- the cold reference: the sampler before streams were memoised ------------

def _cold_point(ctx, rng, cfg):
    n = ctx.dim
    names = [f"x{i}" for i in range(1, n + 1)] + [f"y{a}" for a in range(1, n + 1)]
    boxes = [cfg.coord_boxes.get(name, cfg.box) for name in names]
    boxes += [cfg.box for bound in ctx.params.values() if bound is None]
    vals = [float(lo) + (float(hi) - float(lo)) * u
            for (lo, hi), u in zip(boxes, rng.random(len(boxes)).tolist())]
    free = iter(vals[2 * n:])
    params = {name: float(bound) if bound is not None else next(free)
              for name, bound in ctx.params.items()}
    return Point(vals[:n], vals[n:2 * n], params)


def _cold_draws(ctx, cfg, loci, limit):
    rng = np.random.default_rng(cfg.seed)
    for _ in range(limit):
        p = _cold_point(ctx, rng, cfg)
        try:
            near = any(abs(expr.evaluate(g, p, ctx)) < expr.SAMPLE_LOCUS_GUARD for g in loci)
        except EvalDomainError:
            near = True
        if not near:
            yield p


def _cold_sample_points(ctx, cfg, loci, count):
    limit = max(expr.SAMPLE_MAX_TRIES, 10 * count)
    out = [p for _, p in zip(range(count), _cold_draws(ctx, cfg, loci, limit))]
    if len(out) < count:
        raise ValidationError(
            f"could not draw {count} sample points clear of the singular loci "
            f"in {limit} tries")
    return out


def _cold_is_zero(e, ctx, cfg, loci):
    nf = expr._nf(e)
    if not nf or not expr._cleared_denominators(nf):
        return Tri.PROVEN_ZERO
    s = expr._emit(nf)
    draws = _cold_draws(ctx, cfg, loci, max(expr.SAMPLE_MAX_TRIES, 4 * cfg.points))
    good = 0
    while good < cfg.points:
        p = next(draws, None)
        if p is None:
            break
        try:
            v, mag = expr.evaluate_with_magnitude(s, p, ctx)
        except EvalDomainError:
            continue
        good += 1
        if abs(v) > expr.ZERO_TOL * max(1.0, mag):
            return Tri.PROVEN_NONZERO
    return Tri.UNKNOWN


@contextlib.contextmanager
def _recorded_evaluations(log):
    """Append each point is_zero evaluates at to log."""
    inner = expr.evaluate_with_magnitude

    def recording(e, p, ctx=None):
        log.append(_state(p))
        return inner(e, p, ctx)

    expr.evaluate_with_magnitude = recording
    try:
        yield
    finally:
        expr.evaluate_with_magnitude = inner


def _state(p):
    return p.x, p.y, tuple(p.params.items())


def _outcomes(ops, ctx, configs, loci_sets, exprs, sample, zero):
    out = []
    for op in ops:
        cfg, loci = configs[op[1]], loci_sets[op[2]]
        try:
            if op[0] == "sample":
                out.append([_state(p) for p in sample(ctx, cfg, loci, op[3])])
            else:
                log = []
                with _recorded_evaluations(log):
                    verdict = zero(exprs[op[3]], ctx, SampleConfig(
                        op[4], cfg.box, cfg.coord_boxes, cfg.seed), loci)
                out.append((verdict, log))
        except ValidationError as exc:
            out.append(str(exc))
    return out


# -- the property -----------------------------------------------------------

BOXES = [(-2.0, 2.0), (-1.5, 2.5), (0.25, 3.0), (-0.125, 0.125)]
# loci that reject none, some, most or every draw of the boxes above
LOCI = ["0.3*x1", "0.26*y1", "x1*y1", "ln(x1)", "x1 - 1", "ln(x1)*A", "y{n}^2 - 2"]
# an identity the normal form cannot see (every good point is needed), the
# same under a factor that fails at half the points, a nonzero and a
# structural zero
ZERO_TESTS = ["sin(x1)^2 + cos(x1)^2 - 1", "(sin(y1)^2 + cos(y1)^2 - 1)*ln(x1)",
              "x1*y1 - 1", "x1 - x1"]


@st.composite
def _scenarios(draw):
    n = draw(st.integers(1, 4))
    names = draw(st.lists(st.sampled_from(["A", "B", "C"]), unique=True, max_size=3))
    params = {name: draw(st.one_of(st.none(), st.sampled_from([0.5, -1.25, 3.0])))
              for name in names}
    coords = [f"{axis}{i}" for axis in "xy" for i in range(1, n + 1)]
    seed = draw(st.integers(0, 2 ** 32))
    # two configs that often share a seed, so only their boxes tell them apart
    configs = [SampleConfig(
        box=draw(st.sampled_from(BOXES)),
        coord_boxes=draw(st.dictionaries(st.sampled_from(coords), st.sampled_from(BOXES),
                                         max_size=3)),
        seed=draw(st.sampled_from([seed, seed + 1]))) for _ in range(2)]
    texts = [t.format(n=n) for t in LOCI if "A" not in t or "A" in params]
    loci_sets = [tuple(draw(st.lists(st.sampled_from(texts), max_size=2, unique=True)))
                 for _ in range(2)]
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("sample"), st.integers(0, 1), st.integers(0, 1), st.integers(0, 60)),
        st.tuples(st.just("zero"), st.integers(0, 1), st.integers(0, 1),
                  st.integers(0, len(ZERO_TESTS) - 1), st.integers(1, 150)),
    ), min_size=1, max_size=6))
    return n, params, configs, loci_sets, ops


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_scenarios())
# every draw rejected: the "could not draw" error at limits 400 and 500
@example((1, {}, [SampleConfig(box=(-0.125, 0.125), seed=3)] * 2, [("0.3*x1",), ()],
          [("sample", 0, 0, 5), ("sample", 0, 0, 50), ("sample", 0, 1, 50),
           ("zero", 0, 0, 0, 20)]))
# a shorter limit after a longer one, then a longer one again
@example((2, {"A": None, "B": 0.5}, [SampleConfig(coord_boxes={"x1": (0.25, 3.0)}, seed=7)] * 2,
          [("ln(x1)*A", "0.26*y1"), ()],
          [("sample", 0, 0, 60), ("zero", 0, 0, 1, 150), ("sample", 0, 0, 3),
           ("zero", 0, 0, 0, 30), ("sample", 0, 0, 45)]))
# a limit of 400 after one of 600: 11 of the first 400 draws are clear, 21
# of the first 600
@example((1, {}, [SampleConfig(seed=2)] * 2, [("0.26*y1",), ()],
          [("sample", 0, 0, 60), ("sample", 0, 0, 15), ("zero", 0, 0, 0, 100)]))
# one seed, box and loci, two coord_boxes: two streams
@example((2, {"A": None}, [SampleConfig(seed=4), SampleConfig(coord_boxes={"y1": (0.25, 3.0)},
                                                               seed=4)],
          [(), ()], [("sample", 0, 0, 5), ("sample", 1, 0, 5), ("zero", 0, 0, 2, 10)]))
def test_memoised_streams_give_the_cold_draws(scenario):
    n, params, configs, loci_sets, ops = scenario
    ctx = Context(dim=n, params=dict(params))
    loci_sets = [tuple(parse(t, ctx) for t in texts) for texts in loci_sets]
    exprs = [parse(t, ctx) for t in ZERO_TESTS]
    clear_caches()
    try:
        memoised = _outcomes(ops, ctx, configs, loci_sets, exprs, sample_points, is_zero)
        cold = _outcomes(ops, ctx, configs, loci_sets, exprs,
                         _cold_sample_points, _cold_is_zero)
    finally:
        clear_caches()
    assert memoised == cold


# -- targeted cases ---------------------------------------------------------

def test_new_parameter_values_give_a_new_stream():
    ctx = Context(dim=1, params={"A": None})
    cfg = SampleConfig(seed=5)
    clear_caches()
    free = sample_points(ctx, cfg, count=4)
    ctx.params["A"] = 0.5
    bound = sample_points(ctx, cfg, count=4)
    assert [p.params for p in bound] == [{"A": 0.5}] * 4
    assert [_state(p) for p in bound] == [_state(p) for p in _cold_sample_points(ctx, cfg, (), 4)]
    ctx.params["A"] = None
    assert sample_points(ctx, cfg, count=4) == free
    clear_caches()


class _Tan(Call):
    """A call that evaluate has no rule for: it raises ValidationError."""

    def __init__(self, arg):
        object.__setattr__(self, "fname", "tan")
        object.__setattr__(self, "arg", arg)
        self._set_key(("call", "tan", arg._key))


def test_a_locus_error_is_raised_by_every_call():
    ctx = Context(dim=1)
    cfg = SampleConfig(seed=11)
    # one draw among the first 400 has x1 above t, and only there does the
    # locus get past ln to the call that raises; every other draw is rejected
    t = max(p.x[0] for p in _cold_draws(ctx, cfg, (), 400))
    t = float(np.nextafter(t, -np.inf))
    locus = _Tan(parse(f"ln(x1 - {Fraction(t)})", ctx))
    clear_caches()
    for _ in range(2):
        with pytest.raises(ValidationError, match="cannot evaluate 'tan'"):
            sample_points(ctx, cfg, (locus,), count=1)
    clear_caches()


def test_a_returned_list_is_the_callers_own():
    ctx = Context(dim=2)
    clear_caches()
    first = sample_points(ctx, SampleConfig(seed=2), count=6)
    kept = list(first)
    first.clear()
    assert sample_points(ctx, SampleConfig(seed=2), count=6) == kept
    clear_caches()
