"""The references of the stacked pointwise tests: the rank, null space,
isotropy and maximality (the rank of the rows scaled to largest entry 1) of
one matrix at a time, each with its own numpy call, and a structure's
generator matrices built point by point, each annihilator null space on its
own."""

import numpy as np

from spraydirac.dirac import POINTWISE_TOL
from spraydirac.errors import SingularLocusError
from spraydirac.expr import evaluate, evaluate_points


def matrix_rank(M):
    if M.size == 0:
        return 0
    scale = max(1.0, float(np.max(np.abs(M))))
    s = np.linalg.svd(np.asarray_chkfinite(M), compute_uv=False)
    return int(np.sum(s > POINTWISE_TOL * scale))


def null_space(A):
    """scipy.linalg.null_space's basis, on numpy's gesdd."""
    u, s, vh = np.linalg.svd(np.asarray_chkfinite(A), full_matrices=True)
    M, N = u.shape[0], vh.shape[1]
    rcond = np.finfo(s.dtype).eps * max(M, N)
    tol = np.amax(s, initial=0.) * rcond
    num = np.sum(s > tol, dtype=int)
    return vh[num:, :].T


def is_isotropic_at(B):
    n = B.shape[1] // 4
    V, W = B[:, : 2 * n], B[:, 2 * n:]
    gram = V @ W.T + W @ V.T
    scale = max(1.0, float(np.max(np.sum(B * B, axis=1))))
    return bool(np.max(np.abs(gram)) <= POINTWISE_TOL * scale)


def rows_scaled(B):
    """B with each nonzero row divided by its largest entry, a row at a time."""
    return np.array([r / np.max(np.abs(r)) if r.any() else r for r in B]).reshape(B.shape)


def is_maximal_at(B):
    return matrix_rank(rows_scaled(B)) == B.shape[1] // 2


def generator_matrices(L, points, ctx):
    """L's matrix at each point in turn: its loci tested, its values pulled,
    its annihilator rows completed, then yielded, before the next point."""
    values = evaluate_points(L.all_exprs(), points, ctx)
    for p in points:
        for locus in L.singular_loci:
            if abs(evaluate(locus, p, ctx)) <= 1e-9:
                raise SingularLocusError("point lies on a declared singular locus")
        rows = list(np.reshape(next(values), (len(L.generators), 4 * L.n)))
        if L.auto_annihilator:
            vec_rows = np.array([r[: 2 * L.n] for r in rows
                                 if np.linalg.norm(r[2 * L.n:]) <= 1e-12])
            if vec_rows.size:
                null = null_space(vec_rows)
                for q in range(null.shape[1]):
                    rows.append(np.concatenate([np.zeros(2 * L.n), null[:, q]]))
        yield np.array(rows).reshape(-1, 4 * L.n)
