"""Reference implementations the fast paths are tested against.

Plain Fraction elimination and the loop-based centre and nucleus: slow,
but independent of the modular kernel, the integer structure tensor and
its slabs.
"""

from fractions import Fraction


def rref(matrix):
    """Reduced row echelon form over Fraction: (rows, pivot_columns)."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    lead = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(lead, len(rows)):
            if rows[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[lead], rows[pivot_row] = rows[pivot_row], rows[lead]
        pv = rows[lead][col]
        rows[lead] = [x / pv for x in rows[lead]]
        for r in range(len(rows)):
            if r != lead and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[lead])]
        pivots.append(col)
        lead += 1
        if lead == len(rows):
            break
    return rows, pivots


def nullspace(matrix, ncols=None):
    """Right nullspace basis from the Fraction ``rref``, one vector per free
    column."""
    n = ncols if ncols is not None else len(matrix[0]) if matrix else 0
    rows, pivots = rref(matrix)
    basis = []
    for free in [c for c in range(n) if c not in set(pivots)]:
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for r, pcol in enumerate(pivots):
            vec[pcol] = -rows[r][free]
        basis.append(vec)
    return basis


def centre(algebra):
    """Nullspace of the commutator rows with every basis element."""
    dim = algebra.dim
    rows = []
    for j in range(dim):
        left = [algebra.basis_product(n, j) for n in range(dim)]
        right = [algebra.basis_product(j, n) for n in range(dim)]
        for k in range(dim):
            rows.append([left[n][k] - right[n][k] for n in range(dim)])
    return nullspace(rows, dim)


def nucleus(algebra):
    """Nullspace of the associator rows, absorbed one by one into a growing
    Fraction echelon."""
    dim = algebra.dim
    mult_cache = algebra.gamma
    echelon = []  # (pivot column, normalized row)

    def absorb(row):
        row = list(row)
        for pivot_col, pivot_row in echelon:
            if row[pivot_col] != 0:
                f = row[pivot_col]
                row = [x - f * y for x, y in zip(row, pivot_row)]
        for col, val in enumerate(row):
            if val != 0:
                row = [x / val for x in row]
                for idx, (pc, pr) in enumerate(echelon):
                    if pr[col] != 0:
                        f = pr[col]
                        echelon[idx] = (pc, [x - f * y for x, y in zip(pr, row)])
                echelon.append((col, row))
                return

    basis = [algebra.basis_vector(n) for n in range(dim)]
    for b in range(dim):
        for c in range(dim):
            for r in _nucleus_rows(algebra.multiply, mult_cache, basis, b, c):
                absorb(r)
    return nullspace([row for _, row in echelon], dim)


def _nucleus_rows(mul, mult_cache, basis, b, c):
    """Constraint rows (one per output coordinate) for the three associator
    placements of the unknown at fixed basis indices (b, c)."""
    e_b, e_c = basis[b], basis[c]
    bc = mult_cache[b][c]

    def diff(u, v):
        return [x - y for x, y in zip(u, v)]

    cols = []
    for n, e_n in enumerate(basis):
        cols.append((
            # [a, b, c] = (a b) c - a (b c)
            diff(mul(mult_cache[n][b], e_c), mul(e_n, bc)),
            # [b, a, c] = (b a) c - b (a c)
            diff(mul(mult_cache[b][n], e_c), mul(e_b, mult_cache[n][c])),
            # [b, c, a] = (b c) a - b (c a)
            diff(mul(bc, e_n), mul(e_b, mult_cache[c][n])),
        ))
    rows = [[col[t][k] for col in cols] for k in range(len(basis)) for t in range(3)]
    return [r for r in rows if any(x != 0 for x in r)]
