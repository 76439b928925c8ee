"""Second-order fields, connections, adapted frames, curvature."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spraydirac.errors import ValidationError
from spraydirac.expr import (
    ONE, ZERO, Add, Context, Mul, Point, SampleConfig, Tri, Var, as_expr, evaluate,
    is_zero, parse, simplify,
)
from spraydirac.geometry import (
    OneForm, SemiSpray, VectorField, berwald_frame, connection_coefficients,
    curvature, decompose, euler_residuals, is_flat, is_semispray, is_spray,
    lie_bracket, span_membership,
)


CTX2 = Context(dim=2)
CTX3 = Context(dim=3, params={"A": 1.0})


def _spray2():
    # fiber-quadratic pair with declared positivity loci on both fibers
    return SemiSpray(2, (parse("0", CTX2), parse("y2^2", CTX2)),
                     (parse("y1", CTX2), parse("y2", CTX2)))


def _semispray3():
    G = tuple(parse(t, CTX3) for t in ("A*y1/y3", "A*y2/y3", "A"))
    return SemiSpray(3, G, (parse("y3", CTX3),))


def _opaque_pair():
    ctx = Context(dim=2)
    ctx.declare_function("f")
    G = (parse("(y1^2)*f'(x1)/(2*f(x1))", ctx), parse("f(x1)", ctx))
    return ctx, SemiSpray(2, G)


def test_vector_field_shape():
    S = _spray2()
    X = S.vector_field()
    assert X.base == (Var("y", 1), Var("y", 2))
    assert simplify(X.fiber[0]) == ZERO
    assert simplify(X.fiber[1]) == simplify(parse("-2*y2^2", CTX2))


def test_semispray_detection():
    S = _spray2()
    assert is_semispray(S.vector_field(), CTX2) is Tri.PROVEN_ZERO
    bad = VectorField(2, (Var("y", 1), Var("x", 2)), (ZERO, ZERO))
    assert is_semispray(bad, CTX2) is Tri.PROVEN_NONZERO


def test_euler_identity_for_quadratic_coefficients():
    S = _spray2()
    assert all(r == ZERO for r in euler_residuals(S))
    assert is_spray(S, CTX2) is Tri.PROVEN_ZERO


def test_euler_identity_fails_off_quadratic():
    # second coefficient has no fiber dependence at all
    ctx, S = _opaque_pair()
    res = euler_residuals(S)
    assert res[0] == ZERO
    assert is_spray(S, ctx) is Tri.PROVEN_NONZERO


def test_connection_coefficients_fiber_quadratic():
    N = connection_coefficients(_spray2())
    expect = [["0", "0"], ["0", "2*y2"]]
    for a in range(2):
        for i in range(2):
            assert simplify(N[a][i]) == simplify(parse(expect[a][i], CTX2))


def test_connection_coefficients_with_parameter():
    N = connection_coefficients(_semispray3())
    expect = [
        ["A/y3", "0", "-A*y1/y3^2"],
        ["0", "A/y3", "-A*y2/y3^2"],
        ["0", "0", "0"],
    ]
    for a in range(3):
        for i in range(3):
            assert simplify(N[a][i]) == simplify(parse(expect[a][i], CTX3))


def test_adapted_coframe_components():
    fr = berwald_frame(_spray2())
    # dy1 stays plain, dy2 picks up the connection term 2*y2*dx2
    assert all(c == ZERO for c in fr.dy_adapted[0].dx)
    assert fr.dy_adapted[0].dy == (ONE, ZERO)
    assert simplify(fr.dy_adapted[1].dx[1]) == simplify(parse("2*y2", CTX2))
    assert fr.dy_adapted[1].dx[0] == ZERO
    assert fr.dy_adapted[1].dy == (ZERO, ONE)


def _assert_dual(fr):
    n = fr.n
    for i in range(n):
        for j in range(n):
            d = ONE if i == j else ZERO
            assert simplify(fr.dx[i](fr.horizontal[j])) == d
            assert simplify(fr.dy_adapted[i](fr.vertical[j])) == d
            assert simplify(fr.dx[i](fr.vertical[j])) == ZERO
            assert simplify(fr.dy_adapted[i](fr.horizontal[j])) == ZERO


def test_frame_duality_fixed_examples():
    _assert_dual(berwald_frame(_spray2()))
    _assert_dual(berwald_frame(_semispray3()))


def test_frame_duality_random_polynomial_coefficients():
    rng = np.random.default_rng(20260823)
    for _ in range(20):
        c = rng.integers(-2, 3, size=8)
        G = (
            parse(f"({c[0]} + {c[1]}*x2)*y1^2 + {c[2]}*y1*y2", CTX2),
            parse(f"{c[3]}*y2^2 + ({c[4]} + {c[5]}*x1)*y1*y2 + {c[6]}*y1^2", CTX2),
        )
        _assert_dual(berwald_frame(SemiSpray(2, G)))


def test_decompose_splits_and_reassembles():
    S = _semispray3()
    fr = berwald_frame(S)
    X = S.vector_field()
    horiz, vert = decompose(X, fr)
    assert tuple(horiz) == (Var("y", 1), Var("y", 2), Var("y", 3))
    expect_vert = ("-2*A*y1/y3", "-2*A*y2/y3", "-2*A")
    for got, want in zip(vert, expect_vert):
        assert simplify(got) == simplify(parse(want, CTX3))
    rebuilt = VectorField.zero(3)
    for i in range(3):
        rebuilt = rebuilt + fr.horizontal[i].scaled(horiz[i])
        rebuilt = rebuilt + fr.vertical[i].scaled(vert[i])
    for k in range(6):
        diff_c = simplify(rebuilt.component(k) - simplify(X.component(k)))
        assert diff_c == ZERO


def test_connection_roundtrip_recovers_sprays():
    rng = np.random.default_rng(11)
    sprays = [_spray2()]
    for _ in range(5):
        c = rng.integers(-2, 3, size=4)
        sprays.append(SemiSpray(2, (
            parse(f"{c[0]}*y1^2 + {c[1]}*x1*y1*y2", CTX2),
            parse(f"{c[2]}*y2^2 + {c[3]}*y1^2", CTX2),
        )))
    # half the fiber contraction y_i N^a_i of the connection is G^a exactly
    # where the Euler residual y_i dG^a/dy_i - 2 G^a vanishes
    for S in sprays:
        assert all(r == ZERO for r in euler_residuals(S))


def test_connection_roundtrip_drops_inhomogeneous_part():
    # coefficients of fiber degree 0 leave no trace in the contraction: the
    # Euler residual is -2 G^a alone
    S = _semispray3()
    for r, g in zip(euler_residuals(S), S.G):
        assert simplify(r - Mul((as_expr(-2), g))) == ZERO
    assert is_zero(S.G[2], CTX3) is Tri.PROVEN_NONZERO


def test_curvature_component_with_parameter():
    S = _semispray3()
    R = curvature(S)
    want = simplify(parse("-(A^2)/y3^3", CTX3))
    assert simplify(R.component(0, 0, 2) - want) == ZERO
    assert simplify(R.component(1, 1, 2) - simplify(parse("-(A^2)/y3^3", CTX3))) == ZERO
    assert R.component(0, 0, 1) == ZERO


def test_curvature_antisymmetry_and_flat_list():
    R = curvature(_semispray3())
    n = 3
    for a in range(n):
        for i in range(n):
            assert R.component(a, i, i) == ZERO
            for j in range(n):
                s = simplify(R.component(a, i, j) + R.component(a, j, i))
                assert s == ZERO
    assert len(R.flat_components()) == n * n * (n - 1) // 2


def test_flat_verdicts():
    for S, ctx, verdict in ((_spray2(), CTX2, Tri.PROVEN_ZERO),
                            (_semispray3(), CTX3, Tri.PROVEN_NONZERO)):
        assert is_flat(curvature(S), S.singular_loci, ctx) is verdict


def test_horizontal_bracket_matches_curvature_numerically():
    S = _semispray3()
    fr = berwald_frame(S)
    R = curvature(S, fr)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(-2.0, 2.0, size=3)
        y = rng.uniform(-2.0, 2.0, size=3)
        y[2] = rng.uniform(0.6, 2.0) * (1 if rng.uniform() < 0.5 else -1)
        p = Point(tuple(x), tuple(y), params={"A": 0.7})
        for i in range(3):
            for j in range(i + 1, 3):
                br = lie_bracket(fr.horizontal[i], fr.horizontal[j])
                for k in range(3):
                    assert evaluate(br.base[k], p, CTX3) == pytest.approx(0.0, abs=1e-12)
                for a in range(3):
                    got = evaluate(br.fiber[a], p, CTX3)
                    want = evaluate(R.component(a, i, j), p, CTX3)
                    assert got == pytest.approx(want, abs=1e-10)


def test_span_membership_verdicts():
    S = _spray2()
    fr = berwald_frame(S)
    cfg = SampleConfig(coord_boxes={"y1": (0.5, 2.0), "y2": (0.5, 2.0)})
    loci = S.singular_loci
    # a spray is horizontal, so its field lies in the span of the frame
    assert span_membership(fr.horizontal, S.vector_field(), CTX2, cfg,
                           loci) is Tri.PROVEN_ZERO
    assert span_membership((fr.horizontal[0],), fr.vertical[0], CTX2, cfg,
                           loci) is Tri.PROVEN_NONZERO
    everything = fr.horizontal + fr.vertical
    target = VectorField(2, (parse("x1", CTX2), parse("y2^2", CTX2)),
                         (parse("1", CTX2), parse("x2*y1", CTX2)))
    assert span_membership(everything, target, CTX2, cfg, loci) is Tri.PROVEN_ZERO


def test_span_membership_without_a_pivot_is_unknown():
    # the generator's entry is zero but not structurally so: it is no pivot,
    # and the entry left in the target's row stays undecided
    ctx = Context(dim=1)
    X = VectorField(1, (parse("sin(x1)^2 + cos(x1)^2 - 1", ctx),), (ZERO,))
    assert span_membership((X,), VectorField(1, (ZERO,), (ONE,)), ctx) is Tri.UNKNOWN


# a component is an expression, or a number the constructors turn into one
COMPONENT = st.one_of(
    st.sampled_from(["0", "x1", "-2*y1", "y1^2 - x1", "sin(x1)*y1", "3/2"]).map(
        lambda t: parse(t, CTX3)),
    st.sampled_from([0, 1, -2, 0.5]))
FLAT = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), *[st.lists(COMPONENT, min_size=n, max_size=n) for _ in range(4)],
    COMPONENT))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(FLAT)
def test_fields_and_one_forms_keep_one_flat_tuple(case):
    n, low, high, low2, high2, c = case
    for cls, halves in ((VectorField, ("base", "fiber")), (OneForm, ("dx", "dy"))):
        X, Y = cls(n, low, high), cls(n, low2, high2)
        first, second = (getattr(X, h) for h in halves)
        assert X.comps == first + second == tuple(map(as_expr, [*low, *high]))
        assert all(X.component(k) == X.comps[k] for k in range(2 * n))
        assert X == cls(n, low, high) and hash(X) == hash(cls(n, low, high))
        assert (X + Y).comps == tuple(simplify(Add((a, b))) for a, b in zip(X.comps, Y.comps))
        assert X.scaled(c).comps == tuple(simplify(Mul((as_expr(c), v))) for v in X.comps)
        assert X.simplified().comps == tuple(map(simplify, X.comps))
        with pytest.raises(ValidationError, match=f"^{halves[1]} needs {n} components"):
            cls(n, low, high[1:])
    assert VectorField(n, low, high) != OneForm(n, low, high)


def test_a_form_and_a_field_of_different_dimensions_do_not_pair():
    # zip once cut the pairing to the shorter tuple and returned 5
    with pytest.raises(ValidationError,
                       match="^pairing of a form and a field on different dimensions$"):
        OneForm(2, (1, 0), (0, 1))(VectorField(3, (1, 2, 3), (4, 5, 6)))
