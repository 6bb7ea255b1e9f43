"""Plain numpy Gauss-Jordan elimination on the field's arr_* kernels:
the reference path the list kernel behind convertbw.linalg is tested
against."""

import numpy as np

from convertbw.linalg import Matrix


def ref_echelon(field, a):
    """(rows, pivots): the reduced row-echelon form of the int64 array a
    (zero rows dropped) and its pivot columns; a is not changed."""
    a = a.copy()
    m, n = a.shape
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        a[[r, p]] = a[[p, r]]
        a[r] = field.arr_scale(a[r], field.inv(int(a[r, c])))
        others = np.arange(m) != r
        a[others] = field.arr_submul(a[others], a[r], a[others, c])
        pivots.append(c)
    return a[: len(pivots)], pivots


def ref_rank(m):
    """Rank of a Matrix: its pivot count."""
    return len(ref_echelon(m.field, m.array)[1])


def ref_rref(m):
    return Matrix(m.field, ref_echelon(m.field, m.array)[0])


def ref_inverse(m):
    """Inverse of a square Matrix, or None if it is singular."""
    n = m.rows
    a, pivots = ref_echelon(m.field, np.hstack([m.array, np.eye(n, dtype=np.int64)]))
    return Matrix(m.field, a[:, n:]) if pivots == list(range(n)) else None


def ref_solve_left(target, basis):
    """T with T @ basis = target from the reduced form of [basis | I]
    (T's row is the target row's pivot-column entries times the
    transform rows), or None if some row is outside the row space."""
    fld, n, k = basis.field, basis.cols, basis.rows
    a, pivots = ref_echelon(fld, np.hstack([basis.array, np.eye(k, dtype=np.int64)]))
    keep = [i for i, c in enumerate(pivots) if c < n]
    coords = target.array[:, [pivots[i] for i in keep]]
    if fld.sub(target.array, fld.arr_matmul(coords, a[keep, :n])).any():
        return None
    return Matrix(fld, fld.arr_matmul(coords, a[keep, n:]))
