"""Linear search for conserved energies paired with constant two-forms."""

import numpy as np
import pytest

from spraydirac.ansatz import (
    Ansatz, CandidateSolution, constant_two_form_dictionary,
    monomial_dictionary, search,
)
from spraydirac.errors import ValidationError
from spraydirac.expr import ZERO, Context, parse, simplify
from spraydirac.forms import TwoForm, format_two_form
from spraydirac.geometry import SemiSpray, VectorField


CTX2 = Context(dim=2)


def _free2():
    return SemiSpray(2, (ZERO, ZERO))


def _full_tangent(n):
    return tuple(VectorField.coordinate(n, axis, k + 1)
                 for axis in ("x", "y") for k in range(n))


def _drop3(a_val=0.3):
    ctx = Context(dim=3, params={"A": a_val})
    G = tuple(parse(t, ctx) for t in ("A*y1/y3", "A*y2/y3", "A"))
    return ctx, SemiSpray(3, G, (parse("y3", ctx),))


def test_dictionary_sizes():
    assert len(monomial_dictionary(2, 2)) == 15
    assert len(monomial_dictionary(2, 1)) == 5
    assert len(constant_two_form_dictionary(2)) == 6
    assert len(constant_two_form_dictionary(3)) == 15


def test_ansatz_point_budget_is_validated():
    with pytest.raises(ValidationError):
        Ansatz(2, degree=2, points=10)
    with pytest.raises(ValidationError):
        Ansatz(1, H_dictionary=[])


def test_index_helpers():
    a = Ansatz(2, degree=2)
    assert a.h_index(parse("y1^2", CTX2)) < len(a.H_dictionary)
    k = a.omega_index(0, 2)
    assert len(a.H_dictionary) <= k < a.unknowns
    with pytest.raises(ValidationError):
        a.h_index(parse("y1^3", CTX2))


def test_free_motion_full_tangent_search():
    S = _free2()
    a = Ansatz(2, degree=2)
    result = search(S, _full_tangent(2), a, CTX2)
    assert result.nullspace.shape == (a.unknowns, 5)
    assert result.trivial_dropped == 2
    assert result.rejected == 0
    assert len(result.candidates) == 3

    expected = [
        ("(1/2)*(y1^2)", TwoForm.single(2, 0, 2, 1)),
        ("y1*y2", TwoForm.single(2, 0, 3, 1) + TwoForm.single(2, 1, 2, 1)),
        ("(1/2)*(y2^2)", TwoForm.single(2, 1, 3, 1)),
    ]
    for h_text, omega in expected:
        matches = [c for c in result.candidates
                   if simplify(c.H - parse(h_text, CTX2)) == ZERO]
        assert len(matches) == 1, h_text
        assert matches[0].omega == omega
        assert matches[0].verified
        assert matches[0].certificate is not None
        assert matches[0].certificate.overall == "yes"


def test_projection_locates_known_pairs():
    S = _free2()
    a = Ansatz(2, degree=2)
    result = search(S, _full_tangent(2), a, CTX2)
    v = np.zeros(a.unknowns)
    v[a.h_index(parse("y1^2", CTX2))] = 0.5
    v[a.omega_index(0, 2)] = 1.0
    _, rel = result.project(v)
    assert rel <= 1e-8
    # an unrelated pair stays far from the solution space
    w = np.zeros(a.unknowns)
    w[a.h_index(parse("x1", CTX2))] = 1.0
    _, rel_bad = result.project(w)
    assert rel_bad > 0.9


def test_bound_parameter_coefficients_snap_to_rationals():
    ctx, S = _drop3()
    a = Ansatz(3,
               H_dictionary=[parse("x3", ctx), parse("y3^2", ctx)],
               omega_dictionary=[TwoForm.single(3, 2, 5, 1)])
    result = search(S, [S.vector_field()], a, ctx)
    assert result.trivial_dropped == 1
    assert len(result.candidates) == 1
    cand = result.candidates[0]
    # 1 : 1/(4A) with A = 3/10 reads off as 1 : 5/6
    assert simplify(cand.H - parse("x3 + (5/6)*(y3^2)", ctx)) == ZERO
    assert cand.omega.is_structurally_zero()
    assert cand.verified


def test_degree_one_search_on_decaying_spray():
    S = SemiSpray(2, (parse("0", CTX2), parse("y2^2", CTX2)),
                  (parse("y1", CTX2), parse("y2", CTX2)))
    a = Ansatz(2, degree=1)
    result = search(S, None, a, CTX2)
    assert result.nullspace.shape[1] == 6
    assert result.trivial_dropped == 5
    assert len(result.candidates) == 1
    cand = result.candidates[0]
    assert simplify(cand.H - parse("y1", CTX2)) == ZERO
    assert cand.omega.is_structurally_zero()
    assert cand.certificate is not None
    assert cand.certificate.overall == "yes"


def test_duplicate_dictionary_entries_only_grow_the_nullspace():
    ctx, S = _drop3()
    base = Ansatz(3,
                  H_dictionary=[parse("x3", ctx), parse("y3^2", ctx)],
                  omega_dictionary=[TwoForm.single(3, 2, 5, 1)])
    doubled = Ansatz(3,
                     H_dictionary=[parse("x3", ctx), parse("y3^2", ctx),
                                   parse("y3^2", ctx)],
                     omega_dictionary=[TwoForm.single(3, 2, 5, 1)])
    r1 = search(S, [S.vector_field()], base, ctx)
    r2 = search(S, [S.vector_field()], doubled, ctx)
    assert r2.nullspace.shape[1] == r1.nullspace.shape[1] + 1
    assert ({c.describe() for c in r1.candidates}
            == {c.describe() for c in r2.candidates})


def test_result_stable_under_more_collocation_points():
    ctx, S = _drop3()
    descrs = []
    for pts in (12, 24):
        a = Ansatz(3,
                   H_dictionary=[parse("x3", ctx), parse("y3^2", ctx)],
                   omega_dictionary=[TwoForm.single(3, 2, 5, 1)],
                   points=pts)
        r = search(S, [S.vector_field()], a, ctx)
        descrs.append((r.nullspace.shape[1], {c.describe() for c in r.candidates}))
    assert descrs[0] == descrs[1]


def test_result_stable_under_box_rescaling():
    ctx, S = _drop3()
    descrs = []
    for box in (2.0, 20.0):
        a = Ansatz(3,
                   H_dictionary=[parse("x3", ctx), parse("y3^2", ctx)],
                   omega_dictionary=[TwoForm.single(3, 2, 5, 1)],
                   box=box)
        r = search(S, [S.vector_field()], a, ctx)
        descrs.append({c.describe() for c in r.candidates})
    assert descrs[0] == descrs[1]


def test_constant_only_dictionary_is_all_trivial():
    ctx = Context(dim=1)
    S = SemiSpray(1, (ZERO,))
    a = Ansatz(1, H_dictionary=[parse("1", ctx)], omega_dictionary=[])
    result = search(S, None, a, ctx)
    assert result.nullspace.shape == (1, 1)
    assert result.trivial_dropped == 1
    assert result.candidates == []


def test_generic_coefficients_admit_no_linear_invariant():
    ctx = Context(dim=2)
    S = SemiSpray(2, (parse("x2^2", ctx), parse("x1^2", ctx)))
    a = Ansatz(2, degree=1, omega_dictionary=[])
    result = search(S, [S.vector_field()], a, ctx)
    assert result.trivial_dropped == 1
    assert result.candidates == []


def test_describe_prints_omega_like_the_report():
    omega = (TwoForm.single(2, 0, 2, -2)
             + TwoForm.single(2, 1, 3, parse("x1 + y1", CTX2)))
    # describe reads only H and omega
    cand = CandidateSolution(parse("y1*y2", CTX2), omega, certificate=None)
    assert format_two_form(omega) == "(-2)*dx1^dy1 + (x1 + y1)*dx2^dy2"
    assert cand.describe() == "H = y1*y2 ; omega = " + format_two_form(omega)
