"""The pointwise tests on stacks of matrices give, for each matrix, what
the per-matrix references of pointwise_ref.py give, bit for bit, and the
structure's matrices keep the order of their errors: a point's error comes
after the matrices of the points before it, and a rank-deficient D before
the error of a later point."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from spraydirac import dirac  # noqa: E402
from spraydirac.dirac import (  # noqa: E402
    AlmostDirac, Section, _matrix_rank, _null_space, from_distribution, is_isotropic_at,
    is_maximal_at, stacked,
)
from spraydirac.errors import (  # noqa: E402
    EvalDomainError, RankDeficientError, SingularLocusError, SprayDiracError,
)
from spraydirac.expr import ZERO, Context, Point, SampleConfig, parse  # noqa: E402
from spraydirac.geometry import OneForm, VectorField  # noqa: E402

import pointwise_ref as ref  # noqa: E402

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)
COEFF = st.floats(-2, 2, allow_nan=False)
CTX = Context(dim=2)


@st.composite
def factored(draw, r, c):
    """An r x c matrix of rank at most q: an r x q factor times a q x c one,
    sometimes scaled far up or down."""
    q = draw(st.integers(0, max(r, c)))
    left = np.reshape(draw(st.lists(COEFF, min_size=r * q, max_size=r * q)), (r, q))
    right = np.reshape(draw(st.lists(COEFF, min_size=q * c, max_size=q * c)), (q, c))
    return (left @ right) * draw(st.sampled_from([1.0, 1e-12, 1e8]))


@st.composite
def generator_like(draw, r, n):
    """An r x 4n matrix (V, W): isotropic (W = V A, A antisymmetric), that
    perturbed near the tolerance, or with a free W."""
    V = draw(factored(r, 2 * n))
    a = np.reshape(draw(st.lists(COEFF, min_size=4 * n * n, max_size=4 * n * n)), (2 * n, 2 * n))
    kind = draw(st.sampled_from(["isotropic", "perturbed", "free"]))
    W = V @ (a - a.T)
    if kind == "perturbed":
        W = W + draw(st.sampled_from([1e-10, 1e-9, 1e-8])) * draw(factored(r, 2 * n))
    elif kind == "free":
        W = draw(factored(r, 2 * n))
    return np.hstack([V, W])


def _mixed(shapes, build):
    """Lists of up to 8 matrices, each of one of 1-3 shapes."""
    return st.lists(shapes, min_size=1, max_size=3, unique=True).flatmap(
        lambda ss: st.lists(st.sampled_from(ss).flatmap(lambda s: build(*s)), max_size=8))


MATRICES = _mixed(st.tuples(st.integers(0, 6), st.integers(0, 6)), factored)
GENERATOR_LIKE = _mixed(st.tuples(st.integers(1, 6), st.integers(1, 2)), generator_like)


@PROPERTY
@given(MATRICES)
def test_stacked_rank_and_null_spaces_are_the_per_matrix_ones(mats):
    assert stacked(_matrix_rank, mats) == [ref.matrix_rank(M) for M in mats]
    for got, want in zip(stacked(_null_space, mats), map(ref.null_space, mats)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for M in mats:
        assert type(_matrix_rank(M)) is int
        assert _null_space(M).tobytes() == ref.null_space(M).tobytes()


@PROPERTY
@given(GENERATOR_LIKE)
def test_stacked_isotropy_and_maximality_are_the_per_matrix_ones(mats):
    assert stacked(is_isotropic_at, mats) == [ref.is_isotropic_at(B) for B in mats]
    assert stacked(is_maximal_at, mats) == [ref.is_maximal_at(B) for B in mats]
    for B in mats:
        assert is_isotropic_at(B) is ref.is_isotropic_at(B)
        assert is_maximal_at(B) is ref.is_maximal_at(B)
    # a stack with more than one leading axis
    same = [B for B in mats if B.shape == mats[0].shape] if mats else []
    if same:
        four = np.stack(same)[None]
        assert is_isotropic_at(four)[0].tolist() == [ref.is_isotropic_at(B) for B in same]
        assert is_maximal_at(four)[0].tolist() == [ref.is_maximal_at(B) for B in same]
        assert _matrix_rank(four)[0].tolist() == [ref.matrix_rank(B) for B in same]


def test_an_empty_stack_has_no_ranks():
    assert stacked(_matrix_rank, []) == []
    assert _matrix_rank(np.zeros((0, 3, 4))).shape == (0,)
    assert _matrix_rank(np.zeros((2, 0, 4))).tolist() == [0, 0]


# -- generator matrices -------------------------------------------------------

# x1 and x2*y1 vanish at some of the points below, which changes the number
# of annihilator rows there; 1/x2 cannot be evaluated at x2 = 0; the 1e-12
# multiples put a form part's norm on either side of the zero-row bound
TERMS = ["1", "x1", "x2*y1", "y2", "1 + x1^2", "1/x2", "1e-12*x1", "1e-12*y2"]
COMPONENTS = st.one_of(st.just(ZERO), st.sampled_from(TERMS).map(lambda t: parse(t, CTX)))
SECTIONS = st.lists(COMPONENTS, min_size=8, max_size=8).map(
    lambda c: Section(VectorField(2, tuple(c[0:2]), tuple(c[2:4])),
                      OneForm(2, tuple(c[4:6]), tuple(c[6:8]))))
FIELDS = st.lists(COMPONENTS, min_size=8, max_size=8).map(
    lambda c: Section(VectorField(2, tuple(c[0:2]), tuple(c[2:4])), OneForm.zero(2)))
STRUCTURES = st.builds(
    lambda gens, auto, loci: AlmostDirac(n=2, generators=tuple(gens), auto_annihilator=auto,
                                         singular_loci=loci),
    st.lists(st.one_of(SECTIONS, FIELDS), min_size=1, max_size=4), st.booleans(),
    st.sampled_from([(), (parse("x1 - 1/2", CTX),)]))
COORDS = st.sampled_from([0.0, 0.5, -1.25, 2.0])
POINTS = st.lists(st.tuples(COORDS, COORDS, COORDS, COORDS).map(
    lambda v: Point(v[:2], v[2:])), min_size=1, max_size=6)


def _outcome(matrices):
    """The matrices yielded, as shape and bits, and the error after them."""
    got = []
    try:
        for B in matrices:
            got.append((B.shape, B.tobytes()))
    except SprayDiracError as exc:
        return got, (type(exc), str(exc))
    return got, None


@PROPERTY
@given(STRUCTURES, POINTS)
def test_generator_matrices_are_the_point_by_point_ones(L, pts):
    assert (_outcome(L.generator_matrices(pts, CTX))
            == _outcome(ref.generator_matrices(L, pts, CTX)))


@pytest.mark.parametrize("x1", [0.0, 0.5, -1.25, 1.0, 2.0, 3.0])
def test_a_form_part_near_the_zero_row_bound_is_decided_by_its_norm(x1):
    # form parts 1e-12*x1 dx1 + 1e-12*x1 dx2, of norm 1.41e-12*|x1|, and
    # 1e-12*x1 dy2 alone, of norm 1e-12*|x1|: zero rows or not, on both
    # sides of 1e-12 and of the 2e-12 past which no row is zero
    tiny = parse("1e-12*x1", CTX)
    L = AlmostDirac(n=2, generators=(
        Section(_field("1", "0", "0", "0"), OneForm(2, (tiny, tiny), (ZERO, ZERO))),
        Section(_field("0", "1", "0", "0"), OneForm(2, (ZERO, ZERO), (ZERO, tiny))),
        Section.of_field(_field("0", "0", "1", "0"))), auto_annihilator=True)
    pts = [Point((x1, 1.0), (1.0, 1.0))] * 2
    assert (_outcome(L.generator_matrices(pts, CTX))
            == _outcome(ref.generator_matrices(L, pts, CTX)))


def _field(*comps):
    return VectorField(2, tuple(parse(c, CTX) for c in comps[:2]),
                       tuple(parse(c, CTX) for c in comps[2:]))


P = Point((1.0, 1.0), (1.0, 1.0))
ON_LOCUS = Point((0.5, 1.0), (1.0, 1.0))
UNDEFINED = Point((1.0, 0.0), (1.0, 1.0))   # 1/x2 cannot be evaluated
DEPENDENT = Point((0.0, 1.0), (1.0, 1.0))   # x1 = 0


@pytest.mark.parametrize("k", [0, 1, 3])
def test_a_locus_hit_at_point_k_comes_after_k_matrices(k):
    L = AlmostDirac(n=2, generators=(Section.of_field(_field("1", "0", "1/x2", "0")),),
                    singular_loci=(parse("x1 - 1/2", CTX),))
    # an error at a later point does not come first
    got, error = _outcome(L.generator_matrices([P] * k + [ON_LOCUS, UNDEFINED], CTX))
    assert len(got) == k
    assert error == (SingularLocusError, "point lies on a declared singular locus")


def test_an_evaluation_error_before_a_locus_hit_comes_first():
    L = AlmostDirac(n=2, generators=(Section.of_field(_field("1", "0", "1/x2", "0")),),
                    singular_loci=(parse("x1 - 1/2", CTX),), auto_annihilator=True)
    pts = [P, P, UNDEFINED, ON_LOCUS]
    got, error = _outcome(L.generator_matrices(pts, CTX))
    assert len(got) == 2 and error[0] is EvalDomainError
    assert (got, error) == _outcome(ref.generator_matrices(L, pts, CTX))


def _checked_distribution(monkeypatch, pts, dist):
    monkeypatch.setattr(dirac, "sample_points", lambda *args, **kwargs: pts)
    return from_distribution(dist, None, CTX)


DIST = [_field("x1", "0", "0", "0"), _field("0", "1", "0", "1/x2")]


def test_a_rank_deficient_d_comes_before_an_evaluation_error_at_a_later_point(monkeypatch):
    with pytest.raises(RankDeficientError, match=r"rank < 2"):
        _checked_distribution(monkeypatch, [P, DEPENDENT, P, UNDEFINED], DIST)


def test_a_rank_deficient_d_comes_before_an_annihilator_error_at_its_point(monkeypatch):
    # eta = (1/x2) dy1 annihilates both fields structurally; at x1 = x2 = 0
    # D is rank-deficient and eta cannot be evaluated
    eta = OneForm(2, (ZERO, ZERO), (parse("1/x2", CTX), ZERO))
    dist = [_field("x1", "0", "0", "0"), _field("0", "1", "0", "0")]
    both = Point((0.0, 0.0), (1.0, 1.0))
    monkeypatch.setattr(dirac, "sample_points", lambda *args, **kwargs: [P, both])
    with pytest.raises(RankDeficientError, match=r"rank < 2"):
        from_distribution(dist, [eta], CTX)
    monkeypatch.setattr(dirac, "sample_points", lambda *args, **kwargs: [P, UNDEFINED])
    with pytest.raises(EvalDomainError):
        from_distribution(dist, [eta], CTX)


def test_an_evaluation_error_before_a_rank_deficient_d_comes_first(monkeypatch):
    with pytest.raises(EvalDomainError):
        _checked_distribution(monkeypatch, [P, UNDEFINED, DEPENDENT], DIST)
    assert _checked_distribution(monkeypatch, [P, P], DIST).dist_rank == 2


# an empty family, a dependent one, and ones of rank 1 and 2, with a
# coefficient that varies from point to point
@pytest.mark.parametrize("ann, rank", [([], 0), (["dy1", "2*dy1"], 1),
                                       (["(1 + x1^2)*dy2"], 1), (["dy1", "x2*dy2"], 2)])
def test_the_annihilator_rank_is_the_largest_per_point_rank(ann, rank):
    dist = [_field("1", "0", "0", "0"), _field("0", "1 + x1^2", "0", "0")]

    def form(text):
        coeff, _, axis = text.rpartition("*")
        y = [parse(coeff or "1", CTX) if axis == f"dy{a}" else ZERO for a in (1, 2)]
        return OneForm(2, (ZERO, ZERO), tuple(y))

    L = from_distribution(dist, [form(t) for t in ann], CTX, SampleConfig(seed=7))
    assert L.ann_rank_deficit == 2 - rank
