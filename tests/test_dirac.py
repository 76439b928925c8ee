"""Paired sections, their bracket, and pointwise structure predicates."""

import numpy as np
import pytest

from spraydirac.dirac import (
    AlmostDirac, Section, courant_bracket, from_distribution,
    gauge_transform, is_isotropic_at, is_maximal_at, involutivity_residual,
    jacobi_anomaly, kernel_at, pairing,
)
from spraydirac.errors import AnnihilatorMismatchError, RankDeficientError
from spraydirac.expr import (
    ONE, ZERO, Context, Point, SampleConfig, clear_caches, evaluate, parse, simplify,
)
from spraydirac.forms import TwoForm
from spraydirac.geometry import (
    OneForm, SemiSpray, VectorField, berwald_frame,
)


CTX2 = Context(dim=2)
CTX3 = Context(dim=3, params={"A": 1.0})

MONOMIALS = ["1", "x1", "x2", "y1", "y2", "x1*y2", "y1*y2", "x2^2", "y1^2"]


def _spray2():
    return SemiSpray(2, (parse("0", CTX2), parse("y2^2", CTX2)),
                     (parse("y1", CTX2), parse("y2", CTX2)))


def _semispray3():
    G = tuple(parse(t, CTX3) for t in ("A*y1/y3", "A*y2/y3", "A"))
    return SemiSpray(3, G, (parse("y3", CTX3),))


def _random_section(rng) -> Section:
    def comp():
        if rng.uniform() < 0.55:
            return ZERO
        c = int(rng.integers(-2, 3))
        m = MONOMIALS[int(rng.integers(0, len(MONOMIALS)))]
        return simplify(parse(f"{c}*{m}", CTX2))
    X = VectorField(2, (comp(), comp()), (comp(), comp()))
    alpha = OneForm(2, (comp(), comp()), (comp(), comp()))
    return Section(X, alpha)


def _random_points(rng, count=5):
    return [Point(tuple(rng.uniform(-1.5, 1.5, 2)), tuple(rng.uniform(-1.5, 1.5, 2)))
            for _ in range(count)]


def test_a_structure_follows_a_body_bound_after_its_first_matrix():
    ctx = Context(dim=1)
    ctx.declare_function("f")
    X = VectorField(1, (parse("f(x1)", ctx),), (ZERO,))
    L = AlmostDirac(1, (Section(X, OneForm(1, (ZERO,), (ZERO,))),))
    p = Point((3.0,), (0.0,))
    drawn = next(L.generator_matrices([p], ctx))[0, 0]
    assert drawn != 9.0
    ctx.declare_function("f", parse("x1^2", Context(dim=1)))
    assert next(L.generator_matrices([p], ctx))[0, 0] == 9.0
    clear_caches()
    assert next(L.generator_matrices([p], ctx))[0, 0] == 9.0


def test_pairing_is_symmetric():
    rng = np.random.default_rng(20260823)
    for _ in range(10):
        a, b = _random_section(rng), _random_section(rng)
        assert simplify(pairing(a, b) - pairing(b, a)) == ZERO


def test_pairing_against_adapted_frame():
    fr = berwald_frame(_spray2())
    horiz = Section.of_field(fr.horizontal[0])
    vert_form = Section.of_form(fr.dy_adapted[1])
    assert pairing(horiz, vert_form) == ZERO
    # a frame field paired with its own coordinate form is not null
    assert pairing(Section.of_field(fr.vertical[1]), vert_form) == ONE


def test_courant_bracket_is_antisymmetric():
    rng = np.random.default_rng(5)
    for _ in range(6):
        a, b = _random_section(rng), _random_section(rng)
        lhs = courant_bracket(a, b)
        rhs = courant_bracket(b, a)
        for u, v in zip(lhs.components(), rhs.components()):
            assert simplify(u + v) == ZERO


def test_jacobi_defect_is_an_exact_form():
    rng = np.random.default_rng(99)
    pts = _random_points(rng)
    for _ in range(10):
        triple = (_random_section(rng), _random_section(rng), _random_section(rng))
        for p in pts:
            lhs, rhs = jacobi_anomaly(*triple, p, CTX2)
            assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-7)


def _diagonal_graph(n=2) -> AlmostDirac:
    gens = []
    for i in range(n):
        gens.append(Section(VectorField.coordinate(n, "x", i + 1),
                            OneForm.coordinate(n, "y", i + 1)))
    for a in range(n):
        gens.append(Section(VectorField.coordinate(n, "y", a + 1),
                            OneForm.coordinate(n, "x", a + 1).scaled(-1)))
    return AlmostDirac(n=n, generators=tuple(gens))


def test_diagonal_graph_is_dirac():
    L = _diagonal_graph()
    for i in range(4):
        for j in range(i + 1, 4):
            assert L.bracket(i, j).is_structurally_zero()
    rng = np.random.default_rng(2)
    pts = _random_points(rng, 8)
    Bs = list(L.generator_matrices(pts, CTX2))
    for B in Bs:
        assert is_isotropic_at(B)
        assert is_maximal_at(B)
        assert kernel_at(B) == []
    assert involutivity_residual(L, pts, CTX2, Bs) <= 1e-8


def test_jacobi_defect_vanishes_on_constant_sections():
    L = _diagonal_graph()
    p = Point((0.4, -1.2), (0.9, 0.3))
    lhs, rhs = jacobi_anomaly(L.generators[0], L.generators[1],
                              L.generators[2], p, CTX2)
    assert np.allclose(lhs, 0.0, atol=1e-14)
    assert np.allclose(rhs, 0.0, atol=1e-14)


def test_gauge_transform_inverts_and_preserves_isotropy():
    L = _diagonal_graph()
    omega = (TwoForm.single(2, 0, 1, parse("x1*y2", CTX2))
             + TwoForm.single(2, 1, 2, parse("3*x2", CTX2)))
    moved = gauge_transform(L, omega)
    back = gauge_transform(moved, omega.scaled(-1))
    for g, h in zip(L.generators, back.generators):
        for u, v in zip(g.components(), h.components()):
            assert simplify(u - v) == ZERO
    rng = np.random.default_rng(31)
    for B in moved.generator_matrices(_random_points(rng, 8), CTX2):
        # the pairing shift omega(X,Y) + omega(Y,X) cancels for any omega,
        # closed or not
        assert is_isotropic_at(B)
    assert moved.gauge_of is L


def _horizontal_structure():
    S = _spray2()
    fr = berwald_frame(S)
    cfg = SampleConfig(coord_boxes={"y1": (0.6, 2.0), "y2": (0.6, 2.0)})
    L = from_distribution(fr.horizontal, fr.dy_adapted, CTX2, cfg,
                          loci=S.singular_loci)
    return S, fr, cfg, L


def test_from_distribution_with_full_annihilator():
    S, fr, cfg, L = _horizontal_structure()
    assert L.ann_rank_deficit == 0
    assert L.dist_rank == 2
    assert not L.auto_annihilator
    pts = _sample(CTX2, cfg, S.singular_loci, 10)
    Bs = list(L.generator_matrices(pts, CTX2))
    for B in Bs:
        assert is_isotropic_at(B)
        assert is_maximal_at(B)
    assert involutivity_residual(L, pts, CTX2, Bs) <= 1e-8


def test_from_distribution_with_bound_function_coefficients():
    ctx = Context(dim=2)
    ctx.declare_function("f", parse("x1^2 + 1", Context(dim=1)))
    G = (parse("(y1^2)*f'(x1)/(2*f(x1))", ctx), parse("f(x1)", ctx))
    S = SemiSpray(2, G, (parse("y2", ctx),))
    fr = berwald_frame(S)
    eta2 = OneForm(2, (ZERO, parse("2*f(x1)/y2", ctx)), (ZERO, ONE))
    cfg = SampleConfig(coord_boxes={"y2": (0.6, 2.0)})
    L = from_distribution((S.vector_field(), fr.horizontal[0]),
                          (fr.dy_adapted[0], eta2), ctx, cfg,
                          loci=S.singular_loci)
    assert L.ann_rank_deficit == 0
    for B in L.generator_matrices(_sample(ctx, cfg, S.singular_loci, 8), ctx):
        assert is_isotropic_at(B)


def _thrust_structure_3d():
    S = _semispray3()
    fr = berwald_frame(S)
    D = (fr.horizontal[0], fr.horizontal[1], S.vector_field())
    ann = (
        OneForm(3, tuple(parse(t, CTX3) for t in ("A/y3", "0", "A*y1/y3^2")),
                (ONE, ZERO, ZERO)),
        OneForm(3, tuple(parse(t, CTX3) for t in ("0", "A/y3", "-A*y2/y3^2")),
                (ZERO, ONE, parse("-y2/y3", CTX3))),
    )
    cfg = SampleConfig(coord_boxes={"y3": (0.6, 2.0)})
    return S, from_distribution(D, ann, CTX3, cfg, loci=S.singular_loci), cfg


def test_from_distribution_records_annihilator_deficit():
    S, L, cfg = _thrust_structure_3d()
    assert L.ann_rank_deficit == 1
    assert L.dist_rank == 3
    pts = _sample(CTX3, cfg, S.singular_loci, 10)
    Bs = list(L.generator_matrices(pts, CTX3))
    for B in Bs:
        assert is_isotropic_at(B)
        assert not is_maximal_at(B)
    # the distribution genuinely fails to close
    assert involutivity_residual(L, pts, CTX3, Bs) > 1e-4


def test_annihilator_mismatch_carries_a_witness():
    S = _semispray3()
    dy3 = OneForm.coordinate(3, "y", 3)
    cfg = SampleConfig(coord_boxes={"y3": (0.6, 2.0)})
    with pytest.raises(AnnihilatorMismatchError) as err:
        from_distribution((S.vector_field(),), (dy3,), CTX3, cfg,
                          loci=S.singular_loci)
    assert err.value.witness is not None


def test_the_witness_point_gives_the_printed_value():
    # eta(X) = x1^(1/2): is_zero's witness has x1 > 0, and the message
    # prints the pairing's value there
    ctx = Context(dim=1)
    X = VectorField(1, (ONE,), (ZERO,))
    eta = OneForm(1, (parse("sqrt(x1)", ctx),), (ZERO,))
    for seed in range(1, 9):
        with pytest.raises(AnnihilatorMismatchError) as err:
            from_distribution((X,), (eta,), ctx, SampleConfig(seed=seed))
        p = err.value.witness
        assert isinstance(p, Point)
        value = evaluate(simplify(eta(X)), p, ctx)
        assert str(err.value) == ("annihilator does not vanish on the distribution: "
                                  f"value {value:.3e} at a sampled point")


def test_dependent_generators_rejected():
    fr = berwald_frame(_spray2())
    with pytest.raises(RankDeficientError):
        from_distribution((fr.horizontal[0], fr.horizontal[0].scaled(2)),
                          None, CTX2)


def _folded_structure():
    # span of (d/dx2, -y1 dx1), (d/dx1, y1 dx2), (0, dy1), (0, dy2):
    # the induced leaf form scales with the first fiber coordinate and
    # degenerates on the slice where it vanishes
    gens = (
        Section(VectorField.coordinate(2, "x", 2),
                OneForm(2, (parse("-y1", CTX2), ZERO), (ZERO, ZERO))),
        Section(VectorField.coordinate(2, "x", 1),
                OneForm(2, (ZERO, parse("y1", CTX2)), (ZERO, ZERO))),
        Section.of_form(OneForm.coordinate(2, "y", 1)),
        Section.of_form(OneForm.coordinate(2, "y", 2)),
    )
    return AlmostDirac(n=2, generators=gens)


def test_kernel_jumps_on_the_fold():
    L = _folded_structure()
    away = Point((0.3, -1.1), (2.0, 0.7))
    assert kernel_at(next(L.generator_matrices([away], CTX2))) == []
    p = Point((0.3, -1.1), (0.0, 0.7))
    basis = kernel_at(next(L.generator_matrices([p], CTX2)))
    assert len(basis) == 2
    for v in basis:
        # kernel directions stay inside the base block
        assert np.linalg.norm(v[2:]) <= 1e-12


def test_gauge_by_closed_form_keeps_closure():
    S, fr, cfg, L = _horizontal_structure()
    omega = TwoForm.single(2, 0, 2, 1) + TwoForm.single(2, 1, 3, 1)
    moved = gauge_transform(L, omega)
    pts = _sample(CTX2, cfg, S.singular_loci, 20)
    assert involutivity_residual(moved, pts, CTX2, list(moved.generator_matrices(pts, CTX2))) <= 1e-8


def _sample(ctx, cfg, loci, count):
    from spraydirac.expr import sample_points
    return sample_points(ctx, cfg, loci, count=count)


def test_isotropy_and_kernel_survive_norms_past_the_double_range():
    # v.w = 1.5e304 is finite and |v|^2 = 2.25e308 is not: the pairing
    # exceeds POINTWISE_TOL * |v|^2, so the row is not isotropic; an
    # infinite scale used to pass it
    huge = np.array([[1.5e154, 0.0, 1e150, 0.0]])
    small_iso = np.array([[1.0, 0.0, 0.0, 1.0]])
    small_not = np.array([[1.0, 0.0, 1.0, 0.0]])
    assert is_isotropic_at(huge) is False
    stack = np.stack([huge, small_iso, small_not])
    assert is_isotropic_at(stack).tolist() == [False, True, False]
    # a generator (10^200; 0): the row norm 10^200 overflows when squared
    assert is_isotropic_at(np.array([[1e200, 0.0, 0.0, 0.0]])) is True
    assert len(kernel_at(np.array([[1e200, 0.0, 0.0, 0.0]]))) == 1
