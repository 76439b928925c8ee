"""A gauge transform keeps a structure's dimension, so a structure whose
annihilator the tool completes by itself stays maximal once gauged."""

import json

import pytest

from spraydirac import cli
from spraydirac.dirac import from_distribution, gauge_transform, is_maximal_at
from spraydirac.expr import ONE, ZERO, Context, SampleConfig, sample_points
from spraydirac.forms import TwoForm
from spraydirac.geometry import VectorField


@pytest.mark.xfail(strict=True, reason=(
    "known defect: for an auto-annihilator structure, generator_matrices pads "
    "with the null space of the vector parts of the rows whose form part is "
    "zero; after a gauge D's rows carry i_X omega != 0, so nothing is padded "
    "and the structure reads maximal at no point"))
def test_a_gauged_auto_annihilator_structure_stays_maximal(tmp_path, capsys):
    ctx, cfg = Context(1), SampleConfig(seed=1)
    L = from_distribution([VectorField(1, (ONE,), (ZERO,))], None, ctx, cfg)
    gauged = gauge_transform(L, TwoForm.single(1, 0, 1, 1))
    pts = sample_points(ctx, cfg, (), count=20)
    maximal = [is_maximal_at(B) for B in gauged.generator_matrices(pts, ctx)]
    # the same file with the annihilator the tool completes, written out
    pointwise = []
    for ann in ("", "ann A1 = (0; 1)\n"):
        path = tmp_path / "gauged.sdp"
        path.write_text(f"dim = 1\ndist X1 = (1; 0)\n{ann}omega dx1^dy1 = 1\n")
        assert cli.main(["dirac-check", str(path), "--json"]) == 0
        pointwise.append(json.loads(capsys.readouterr().out)["pointwise"])
    assert all(maximal) and pointwise[0] == pointwise[1]
