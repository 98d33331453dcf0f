"""Reference implementations the fast paths are tested against.

Plain Fraction elimination and the loop-based centre and nucleus: slow,
but independent of the modular kernel, the integer structure tensor and
its slabs.  The multiplication-operator matrices from the recursive
product: independent of the sign table and its XOR gathers.  The
sign-table product loop: the float summation order of ``cd_multiply``.  The Smith
normal form with its determinant check, and invariant factors by prime
factoring: independent of the carried inverses and the gcd/lcm chain in
``hyperlab.abelian``.  The identity battery as a loop of ``CDElement``
products, one sample tuple at a time: independent of the batch forms and
slabs of ``hyperlab.cayley_dickson.identity_battery``.  The d'Alembert
residual of a separable solution from six ``CDElement`` products per node
pair: independent of the batched products of
``hyperlab.grid.separable_dalembert_check``.

Also enumeration routes and symbolic expectations: homomorphism and Ext
orders of cyclic groups by enumeration, H / mH from a presentation, every
abelian group of an order, every topology on a few points, the Heyting
implication by search and isomorphism by permutations, the numeric
Jacobian rank, the level-r conjugated algebra and the Pauli matrices, and
the quaternionic-type products with their trace, norm and conjugate.

The searches ``hyperlab.heyting`` ran before its filters, quotients and
complements came from the order: the breadth-first meet closure of a
generator set, the quotient that tests each element against each class
through the implication, and the pairwise complement search.  And
``UncheckedTables``, a stand-in for an algebra whose tables need not obey
the laws.
"""

import itertools
import random
from fractions import Fraction

from hyperlab.abelian import TRIVIAL, FGAbelianGroup, _cyclic_blocks, decompose
from hyperlab.cayley_dickson import (
    CDElement,
    ConjugatedAlgebra,
    ExhaustiveBasis,
    IdentityVerdict,
    PropertyReport,
    RandomSample,
    cd_multiply_recursive,
    check_level,
    norm_sq,
    quaternion_to_complex_matrix,
    structure_constants,
    zero_divisor_probe,
)
from hyperlab.exact import matrix_rank_float
from hyperlab.heyting import Filter, FiniteTopology, HeytingAlgebra, InvalidFilter
from hyperlab.jets import PDESystem, _fill_point, formal_jacobian
from hyperlab.polynomials import Poly


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


def _multiplication_matrix(a, product):
    """Entry [k][q] is the e_k coefficient of product(e_q)."""
    dim = 1 << a.level
    columns = [product(CDElement.basis(a.level, q)).coeffs for q in range(dim)]
    return [[col[k] for col in columns] for k in range(dim)]


def left_multiplication_matrix(a):
    """Matrix of x -> a x in the basis, column q being a e_q."""
    return _multiplication_matrix(a, lambda unit: cd_multiply_recursive(a, unit))


def right_multiplication_matrix(a):
    """Matrix of x -> x a in the basis, column q being e_q a."""
    return _multiplication_matrix(a, lambda unit: cd_multiply_recursive(unit, a))


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


def smith_normal_form(matrix):
    """The row/column elimination behind ``abelian.smith_normal_form``, with
    the same pivot rule and operation order, checked by determinants:
    (factors, U, V, D) with U * M * V = D."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    a = [[int(x) for x in row] for row in matrix]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, k):  # row_i -= k * row_j
        a[i] = [x - k * y for x, y in zip(a[i], a[j])]
        u[i] = [x - k * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, k):  # col_i -= k * col_j
        for row in a:
            row[i] -= k * row[j]
        for row in v:
            row[i] -= k * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if a[t][t] < 0:
            negate_row(t)
        dirty = False
        for i in range(t + 1, m):
            if a[i][t] != 0:
                row_op(i, t, a[i][t] // a[t][t])
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if a[t][j] != 0:
                col_op(j, t, a[t][j] // a[t][t])
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)
            continue
        t += 1

    factors = [a[i][i] for i in range(min(m, n))]
    d = [[a[i][j] for j in range(n)] for i in range(m)]
    um = [[sum(u[i][k] * matrix[k][j] for k in range(m)) for j in range(n)]
          for i in range(m)]
    umv = [[sum(um[i][k] * v[k][j] for k in range(n)) for j in range(n)]
           for i in range(m)]
    if umv != d:
        raise AssertionError("U*M*V does not equal D")
    if m and det(u) not in (1, -1):
        raise AssertionError("U not unimodular")
    if n and det(v) not in (1, -1):
        raise AssertionError("V not unimodular")
    return factors, u, v, d


def det(mat):
    """Determinant of a square integer matrix by Fraction elimination."""
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    result = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            result = -result
        result *= a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return int(result)


def _factorint(n: int) -> dict:
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(divisors):
    """(rank, torsion chain) of the direct sum of Z/d, d = 0 meaning Z, by
    factoring every divisor and stacking prime powers."""
    rank = 0
    primary = {}
    for d in divisors:
        d = abs(int(d))
        if d == 0:
            rank += 1
        elif d > 1:
            for p, e in _factorint(d).items():
                primary.setdefault(p, []).append(e)
    chains = {p: sorted(es, reverse=True) for p, es in primary.items()}
    length = max((len(c) for c in chains.values()), default=0)
    factors = []
    for i in range(length):
        factor = 1
        for p, chain in chains.items():
            if i < len(chain):
                factor *= p ** chain[i]
        factors.append(factor)
    return rank, tuple(reversed(factors))


def _identity_checks(level: int):
    one = CDElement.one(level)

    def associative(t):
        a, b, c = t
        return (a * b) * c == a * (b * c)

    def left_alternative(t):
        a, b = t
        return (a * a) * b == a * (a * b)

    def right_alternative(t):
        a, b = t
        return (a * b) * b == a * (b * b)

    def flexible(t):
        a, b = t
        return a * (b * a) == (a * b) * a

    def moufang_a(t):
        a, x, y = t
        return a * (x * (a * y)) == ((a * x) * a) * y

    def moufang_b(t):
        a, x, y = t
        return ((x * a) * y) * a == x * ((a * y) * a)

    def moufang_c(t):
        a, x, y = t
        return (a * x) * (y * a) == (a * (x * y)) * a

    def power_associative(t):
        (z,) = t
        powers = [one, z]
        for _ in range(5):
            powers.append(powers[-1] * z)
        for total in range(2, 7):
            for n in range(1, total):
                if powers[n] * powers[total - n] != powers[total]:
                    return False
        return True

    def norm_multiplicative(t):
        a, b = t
        return norm_sq(a * b) == norm_sq(a) * norm_sq(b)

    return [
        ("associative", 3, associative),
        ("left_alternative", 2, left_alternative),
        ("right_alternative", 2, right_alternative),
        ("flexible", 2, flexible),
        ("moufang_a", 3, moufang_a),
        ("moufang_b", 3, moufang_b),
        ("moufang_c", 3, moufang_c),
        ("power_associative", 1, power_associative),
        ("norm_multiplicative", 2, norm_multiplicative),
    ]


def identity_battery(
    r: int,
    mode: ExhaustiveBasis | RandomSample = ExhaustiveBasis(),
) -> PropertyReport:
    """Verdicts for the standard identity ladder at level r.

    Every failure carries a concrete witness tuple that re-checks against
    the corresponding operation.  Known counterexample candidates (the
    canonical zero-divisor pair) are probed ahead of random sampling so
    failing identities report a stable witness.
    """
    check_level(r)
    dim = 1 << r
    basis = [CDElement.basis(r, k) for k in range(dim)]
    probe = zero_divisor_probe(r)

    def tuples(arity: int):
        if isinstance(mode, ExhaustiveBasis):
            yield from itertools.product(basis, repeat=arity)
        else:
            rng = random.Random(mode.seed * 7919 + arity)
            if probe is not None and arity == 2:
                yield probe
            for _ in range(mode.count):
                yield tuple(
                    CDElement(
                        r,
                        [rng.randint(-3, 3) for _ in range(dim)],
                    )
                    for _ in range(arity)
                )

    verdicts = {}
    for name, arity, check in _identity_checks(r):
        witness = None
        checked = 0
        for t in tuples(arity):
            checked += 1
            if not check(t):
                witness = t
                break
        verdicts[name] = IdentityVerdict(name, witness is None, witness, checked)
    return PropertyReport(level=r, mode=mode, verdicts=verdicts)


def quotient_by_multiple(h: FGAbelianGroup, m: int) -> FGAbelianGroup:
    """H / mH computed from a presentation matrix, not from the gcd rule;
    serves as the independent route for Ext(Zm, H)."""
    if m == 0:
        return h
    blocks = _cyclic_blocks(h)
    k = len(blocks)
    # generators x1..xk, relations: d_i x_i = 0 (finite blocks) and m x_i = 0
    rows = []
    for i, d in enumerate(blocks):
        if d != 0:
            rows.append([d if j == i else 0 for j in range(k)])
        rows.append([m if j == i else 0 for j in range(k)])
    if not rows:
        return TRIVIAL
    return decompose(rows)


def count_homs_brute(m: int, n: int) -> int:
    """Homomorphisms Zm -> Zn by enumerating images of the generator."""
    return sum(1 for x in range(n) if (m * x) % n == 0)


def image_order_multiplication(m: int, n: int) -> int:
    """Order of the subgroup m*Zn, by enumeration."""
    return len({(m * x) % n for x in range(n)})


def ext_order_brute(m: int, n: int) -> int:
    """|Zn / mZn| by enumeration; equals |Ext(Zm, Zn)|."""
    return n // image_order_multiplication(m, n)


def abelian_groups_of_order(n: int) -> list[FGAbelianGroup]:
    """All isomorphism classes of abelian groups of order n."""
    if n < 1:
        raise ValueError("order must be positive")

    def partitions(k):
        if k == 0:
            yield ()
            return
        for first in range(k, 0, -1):
            for rest in partitions(k - first):
                if not rest or rest[0] <= first:
                    yield (first,) + rest

    per_prime = []
    for p, e in _factorint(n).items():
        per_prime.append([[p ** part for part in parts] for parts in partitions(e)])
    if not per_prime:
        return [TRIVIAL]
    groups = []
    for combo in itertools.product(*per_prime):
        divisors = [d for block in combo for d in block]
        groups.append(FGAbelianGroup.from_divisors(*divisors))
    unique = []
    for g in groups:
        if g not in unique:
            unique.append(g)
    return unique


def enumerate_topologies(n: int):
    """Every topology on n labelled points (n <= 4 is practical)."""
    full = (1 << n) - 1
    middles = [m for m in range(1, full)]
    for selection in itertools.product((False, True), repeat=len(middles)):
        opens = {0, full}
        opens.update(m for m, take in zip(middles, selection) if take)
        closed = True
        for a in opens:
            for b in opens:
                if (a | b) not in opens or (a & b) not in opens:
                    closed = False
                    break
            if not closed:
                break
        if closed:
            yield FiniteTopology(tuple(f"p{i}" for i in range(n)), tuple(sorted(opens)))


def implication_by_search(meet, leq, n, a, b):
    """Greatest c with a /\\ c <= b, or None if no greatest one exists."""
    candidates = [c for c in range(n) if leq(meet[a][c], b)]
    for c in candidates:
        if all(leq(d, c) for d in candidates):
            return c
    return None


class UncheckedTables:
    """Meet, join and implication tables with the attributes and methods
    of a ``HeytingAlgebra`` that ``law_report`` and the loop references
    read, but without its law check: the tables need not be an algebra."""

    def __init__(self, meet, join, impl, bottom, top):
        self.meet, self.join, self.impl = meet, join, impl
        self.bottom, self.top = bottom, top
        self.n = len(meet)
        self.labels = [str(i) for i in range(self.n)]

    def neg(self, x):
        return self.impl[x][self.bottom]

    def elements(self):
        return range(self.n)


def filter_by_meet_closure(h: HeytingAlgebra, generators) -> Filter:
    """Smallest filter containing the generators: everything above a finite
    meet of generators; {top} when the set is empty."""
    generators = list(generators)
    if not generators:
        return Filter(h, frozenset({h.top}))
    meets = {h.top}
    frontier = {h.top}
    while frontier:
        new = set()
        for m in frontier:
            for g in generators:
                v = h.meet[m][g]
                if v not in meets:
                    new.add(v)
        meets |= new
        frontier = new
    members = {y for y in h.elements() if any(h.leq(m, y) for m in meets)}
    return Filter(h, frozenset(members))


def quotient_by_relation_search(h: HeytingAlgebra, f: Filter):
    """Quotient by x ~ y iff x -> y and y -> x both lie in the filter.

    Returns (quotient algebra, projection list).  Class representatives are
    least indices; the projection is a morphism whose kernel is the filter,
    and the induced operations are checked to be representative-independent.
    """
    if f.algebra is not h:
        raise InvalidFilter("filter belongs to a different algebra")

    def related(x, y):
        return h.impl[x][y] in f and h.impl[y][x] in f

    classes = []
    proj = [None] * h.n
    for x in h.elements():
        for idx, cls in enumerate(classes):
            if related(x, cls[0]):
                cls.append(x)
                proj[x] = idx
                break
        else:
            classes.append([x])
            proj[x] = len(classes) - 1

    reps = [cls[0] for cls in classes]
    meet = [[proj[h.meet[a][b]] for b in reps] for a in reps]
    join = [[proj[h.join[a][b]] for b in reps] for a in reps]
    impl = [[proj[h.impl[a][b]] for b in reps] for a in reps]
    # well-definedness across representatives
    for cls in classes:
        for alt in cls[1:]:
            for other in reps:
                if (proj[h.meet[alt][other]] != meet[proj[alt]][proj[other]]
                        or proj[h.join[alt][other]] != join[proj[alt]][proj[other]]
                        or proj[h.impl[alt][other]] != impl[proj[alt]][proj[other]]
                        or proj[h.impl[other][alt]] != impl[proj[other]][proj[alt]]):
                    raise InvalidFilter("quotient operations not well defined")
    labels = ["[" + h.labels[r] + "]" for r in reps]
    quotient = HeytingAlgebra(meet, join, impl, proj[h.bottom], proj[h.top],
                              labels=labels)
    return quotient, proj


def complemented_by_search(h: HeytingAlgebra) -> frozenset:
    """The elements x with some y such that x /\\ y is bottom and x \\/ y top."""
    return frozenset(
        x for x in h.elements()
        if any(h.meet[x][y] == h.bottom and h.join[x][y] == h.top
               for y in h.elements())
    )


def algebras_isomorphic(h1: HeytingAlgebra, h2: HeytingAlgebra) -> bool:
    """Existence of a bijective morphism; exhaustive, for small algebras."""
    if h1.n != h2.n:
        return False
    for perm in itertools.permutations(range(h2.n)):
        if perm[h1.bottom] != h2.bottom or perm[h1.top] != h2.top:
            continue
        if all(
            perm[h1.meet[x][y]] == h2.meet[perm[x]][perm[y]]
            and perm[h1.join[x][y]] == h2.join[perm[x]][perm[y]]
            and perm[h1.impl[x][y]] == h2.impl[perm[x]][perm[y]]
            for x in range(h1.n) for y in range(h1.n)
        ):
            return True
    return False


def residual_at_point(system: PDESystem, point: dict) -> list:
    """Each equation of ``system`` evaluated at ``point``, unlisted
    variables zero."""
    env, one = _fill_point(system, point)
    order = system.coords.variables
    return [eq.evaluate(env, one=one, var_order=order) for eq in system.equations]


def numeric_jacobian_rank(system: PDESystem, point: dict, tolerance: float = 1e-8) -> int:
    """Oracle for real points: numeric rank of the evaluated Jacobian."""
    env, _ = _fill_point(system, point)
    return matrix_rank_float([[float(entry.evaluate(env)) for entry in row]
                              for row in formal_jacobian(system)], tolerance)


def max_abs(values) -> float:
    """Largest euclidean magnitude over a nested residual array."""
    worst = 0.0
    for row in values:
        for v in row:
            if isinstance(v, CDElement):
                mag = float(sum(float(c) * float(c) for c in v.coeffs)) ** 0.5
            else:
                mag = abs(float(v))
            worst = max(worst, mag)
    return worst


def dalembert_pair_residuals(f_values, g_values, f_derivs, g_derivs):
    """The d'Alembert residual R = u u_xy - u_x u_y of u = f g as the
    per-pair loop forms it, six ``CDElement`` products per node pair:
    (i, j, R, euclidean norm of R) for every pair in row-major order."""
    out = []
    for i, (f, fp) in enumerate(zip(f_values, f_derivs)):
        for j, (g, gp) in enumerate(zip(g_values, g_derivs)):
            r = (f * g) * (fp * gp) - (fp * g) * (f * gp)
            out.append((i, j, r, float(sum(float(c) * float(c) for c in r.coeffs)) ** 0.5))
    return out


def dalembert_pair_loop(f_values, g_values, f_derivs, g_derivs, tolerance):
    """(largest euclidean norm, witness (i, j, R) or None) of the residuals
    of ``dalembert_pair_residuals``, the witness being the pair that last
    raised the largest norm, when above ``tolerance``."""
    worst, witness = 0.0, None
    for i, j, r, mag in dalembert_pair_residuals(f_values, g_values, f_derivs, g_derivs):
        if mag > worst:
            worst = mag
            if mag > tolerance:
                witness = (i, j, r)
    return worst, witness


def table_loop_product(a, b):
    """The coefficients of ab, e_p e_q = sign * e_{p ^ q} summed over (p, q)
    in order: the sign-table loop whose float summation order
    ``cd_multiply`` keeps."""
    t = structure_constants(a.level)
    out = [0] * t.dim
    for p, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        for q, cb in enumerate(b.coeffs):
            if cb == 0:
                continue
            out[p ^ q] += t.sign[p][q] * ca * cb
    return out


def conjugated_from_level(r: int) -> ConjugatedAlgebra:
    """The level-r table packaged with its standard conjugation."""
    table = structure_constants(r)
    n = table.dim
    zero = Fraction(0)
    mult = [[None] * n for _ in range(n)]
    for p in range(n):
        for q in range(n):
            vec = [zero] * n
            k, s = table.product(p, q)
            vec[k] = Fraction(s)
            mult[p][q] = vec
    conj = []
    for p in range(n):
        vec = [zero] * n
        vec[p] = Fraction(1) if p == 0 else Fraction(-1)
        conj.append(vec)
    return ConjugatedAlgebra(mult=mult, conj=conj)


def pauli_matrices():
    """sigma_x, sigma_y, sigma_z derived from the quaternion embedding."""
    i, j, k = (CDElement.basis(2, n) for n in (1, 2, 3))
    scale = -1j

    def times(mat):
        return [[scale * entry for entry in row] for row in mat]

    return (
        times(quaternion_to_complex_matrix(k)),
        times(quaternion_to_complex_matrix(j)),
        times(quaternion_to_complex_matrix(i)),
    )


def _symbols():
    return Poly.variable("alpha"), Poly.variable("beta"), Poly.variable("gamma")


def quaternion_type_products(alpha=None, beta=None, gamma=None) -> dict:
    """Expected products on the basis (e, i, j, k); symbolic by default.

    i*i = alpha e + beta i        i*j = k            i*k = alpha j + beta k
    j*i = beta j - k              j*j = gamma e      j*k = beta gamma e - gamma i
    k*i = -alpha j                k*j = gamma i      k*k = -alpha gamma e
    """
    if alpha is None:
        alpha, beta, gamma = _symbols()
    zero, one = 0 * alpha, 0 * alpha + 1
    e = [one, zero, zero, zero]
    return {
        (1, 1): [alpha, beta, zero, zero],
        (1, 2): [zero, zero, zero, one],
        (1, 3): [zero, zero, alpha, beta],
        (2, 1): [zero, zero, beta, zero - 1],
        (2, 2): [gamma, zero, zero, zero],
        (2, 3): [beta * gamma, zero - gamma, zero, zero],
        (3, 1): [zero, zero, zero - alpha, zero],
        (3, 2): [zero, gamma, zero, zero],
        (3, 3): [zero - alpha * gamma, zero, zero, zero],
        (0, 0): e,
        (0, 1): [zero, one, zero, zero],
        (0, 2): [zero, zero, one, zero],
        (0, 3): [zero, zero, zero, one],
        (1, 0): [zero, one, zero, zero],
        (2, 0): [zero, zero, one, zero],
        (3, 0): [zero, zero, zero, one],
    }


def quaternion_type_trace(rho, xi, eta=None, zeta=None, beta=None):
    """T(u) = 2 rho + beta xi for u = rho e + xi i + eta j + zeta k."""
    if beta is None:
        beta = Poly.variable("beta")
    return 2 * rho + beta * xi


def quaternion_type_norm(rho, xi, eta, zeta, alpha=None, beta=None, gamma=None):
    """N(u) = rho^2 + beta rho xi - alpha xi^2
            - gamma (eta^2 + beta eta zeta - alpha zeta^2)."""
    if alpha is None:
        alpha, beta, gamma = _symbols()
    return (
        rho * rho + beta * rho * xi - alpha * xi * xi
        - gamma * (eta * eta + beta * eta * zeta - alpha * zeta * zeta)
    )


def quaternion_type_conjugate(rho, xi, eta, zeta, beta=None):
    """conj(u) = (rho + beta xi) e - xi i - eta j - zeta k."""
    if beta is None:
        beta = Poly.variable("beta")
    return [rho + beta * xi, 0 - xi, 0 - eta, 0 - zeta]
