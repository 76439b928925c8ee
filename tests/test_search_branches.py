"""search's branches on ex4 with its ansatz line: the directions it keeps,
the certificates it rejects and the duplicates it skips."""

from pathlib import Path

import pytest

from spraydirac import ansatz
from spraydirac.ansatz import Ansatz, search
from spraydirac.expr import Tri
from spraydirac.problemfile import load_problem_file

EX4 = Path(__file__).resolve().parents[1] / "demos" / "problems" / "ex4.sdp"


def _search():
    pf = load_problem_file(str(EX4))
    st = pf.ansatz
    a = Ansatz(pf.n, degree=st.degree, points=st.points, box=st.box, seed=st.seed)
    return search(pf.semispray(), pf.dist, a, pf.context)


@pytest.fixture(scope="module")
def kept():
    return _search()


def test_ex4_keeps_three_candidates(kept):
    assert len(kept.candidates) == 3
    assert (kept.rejected, kept.trivial_dropped) == (0, 2)
    assert all(c.verified for c in kept.candidates)


def test_a_residual_proven_nonzero_rejects_every_candidate(monkeypatch):
    real = ansatz._certifier

    def certifier(*args):
        certify = real(*args)

        def refuted(omega, H):
            report = certify(omega, H)
            report.residual_verdicts = (Tri.PROVEN_NONZERO, *report.residual_verdicts[1:])
            return report
        return refuted

    monkeypatch.setattr(ansatz, "_certifier", certifier)
    got = _search()
    assert got.candidates == []
    assert (got.rejected, got.trivial_dropped) == (3, 2)


def test_a_repeated_direction_is_kept_once(monkeypatch, kept):
    real = ansatz._canonical_directions
    monkeypatch.setattr(ansatz, "_canonical_directions",
                        lambda basis: [d for d in real(basis) for _ in range(2)])
    got = _search()
    assert [c.describe() for c in got.candidates] == [c.describe() for c in kept.candidates]
    assert got.rejected == 0
