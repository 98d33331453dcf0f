"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see the
lines as they go).  Tolerances and runtime bounds are pinned here."""

import random
import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from hyperlab.abelian import (
    FGAbelianGroup,
    cyclic,
    cyclic_homology,
    ext,
    extension_count,
    iso_check,
)
from hyperlab.cayley_dickson import (
    CDElement,
    ExhaustiveBasis,
    RandomSample,
    find_zero_divisors,
    identity_battery,
    norm_sq,
    quaternion_type_algebra,
    structure_constants,
)
from hyperlab.grid import GridField, heat_evolve, single_mode_decay_factor
from hyperlab.heyting import (
    NotHeyting,
    classify_elements,
    heyting_from_chain,
    heyting_from_lattice,
    heyting_from_topology,
)
from hyperlab.jets import (
    builtin_systems,
    classify_point,
    formal_jacobian,
    jet_dimensions,
    minor_determinants,
)
from hyperlab.polynomials import Poly
from hyperlab.reference_tables import OCTONION_TABLE, compare_with_reference

from fixtures import diamond_lattice, pentagon_lattice
from oracles import (
    enumerate_topologies,
    ext_order_brute,
    implication_by_search,
    quaternion_type_norm,
    quaternion_type_products,
    quaternion_type_trace,
)


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d}: {status} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_octonion_golden_table():
    start = time.perf_counter()
    mismatches = compare_with_reference(structure_constants(3), OCTONION_TABLE)
    elapsed = time.perf_counter() - start
    report(1, mismatches == [] and elapsed < 1.0,
           f"64/64 octonion products exact, {elapsed:.3f}s")


def test_criterion_02_quaternion_golden_tables():
    alpha, beta, gamma = (Poly.variable(n) for n in ("alpha", "beta", "gamma"))
    generic = quaternion_type_algebra(alpha, beta, gamma)

    def basis(k):
        vec = [Poly() for _ in range(4)]
        vec[k] = Poly.constant(1)
        return vec

    symbolic_ok = all(
        all(Poly.coerce(g) == Poly.coerce(v)
            for g, v in zip(generic.multiply(basis(p), basis(q)), vec))
        for (p, q), vec in quaternion_type_products().items()
    )
    special = quaternion_type_algebra(alpha, 0 * alpha, gamma)
    beta0_ok = all(
        all(Poly.coerce(g) == Poly.coerce(v)
            for g, v in zip(special.multiply(basis(p), basis(q)), vec))
        for (p, q), vec in quaternion_type_products(alpha, 0 * alpha, gamma).items()
    )
    rho, xi, eta, zeta = (Poly.variable(n) for n in ("rho", "xi", "eta", "zeta"))
    u = [rho, xi, eta, zeta]
    trace_ok = Poly.coerce(generic.trace_of(u)) == quaternion_type_trace(rho, xi, eta, zeta)
    norm_ok = Poly.coerce(generic.norm_of(u)) == quaternion_type_norm(rho, xi, eta, zeta)

    rng = random.Random(2024)
    mult_ok = True
    for trial in range(20):
        params = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]
        algebra = quaternion_type_algebra(*params)
        for _ in range(50):  # 20 * 50 = 1000 random rational pairs
            x = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(4)]
            y = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(4)]
            if algebra.norm_of(algebra.multiply(x, y)) != \
                    algebra.norm_of(x) * algebra.norm_of(y):
                mult_ok = False
    report(2, symbolic_ok and beta0_ok and trace_ok and norm_ok and mult_ok,
           "generic 4x4 type table, beta=0 table, trace/norm formulas, "
           "N(uv)=N(u)N(v) on 1000 exact pairs")


def test_criterion_03_sedenion_zero_divisor():
    start = time.perf_counter()
    pairs = find_zero_divisors(4)
    elapsed = time.perf_counter() - start
    a = CDElement.basis(4, 3) + CDElement.basis(4, 10)
    b = CDElement.basis(4, 6) - CDElement.basis(4, 15)
    present = (a, b) in [(p, q) for p, q in pairs]
    norms = norm_sq(a * b) == 0 and norm_sq(a) * norm_sq(b) == 4
    report(3, present and norms and elapsed < 5.0,
           f"(e3+e10)(e6-e15)=0 found among {len(pairs)} pairs, "
           f"norm product 0 != 4, {elapsed:.2f}s")


def test_criterion_04_identity_battery():
    r2 = identity_battery(2, ExhaustiveBasis())
    ok2 = r2.all_passed()

    r3 = identity_battery(3, ExhaustiveBasis())
    ok3 = (not r3.passed("associative")
           and r3.witness("associative") is not None
           and all(r3.passed(n) for n in
                   ("left_alternative", "right_alternative", "flexible",
                    "moufang_a", "moufang_b", "moufang_c")))

    r4 = identity_battery(4, RandomSample(count=1000, seed=7))
    ok4 = (r4.passed("flexible") and r4.passed("power_associative")
           and not r4.passed("left_alternative")
           and not r4.passed("right_alternative"))
    report(4, ok2 and ok3 and ok4,
           "r=2 associative; r=3 alternative+Moufang with associativity "
           "witness; r=4 (n=1000, seed 7) flexible+power-associative only")


def test_criterion_05_hurwitz():
    rng = random.Random(99)
    ok = True
    for r in (0, 1, 2, 3):
        for _ in range(1000):
            a = CDElement(r, [Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                              for _ in range(1 << r)])
            b = CDElement(r, [Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                              for _ in range(1 << r)])
            if norm_sq(a * b) != norm_sq(a) * norm_sq(b):
                ok = False
    report(5, ok, "norm multiplicativity exact on 1000 rational pairs at "
                  "each level 0..3")


def test_criterion_06_heyting_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    count = 0
    for n in range(1, 4):
        for topology in enumerate_topologies(n):
            h = heyting_from_topology(topology)  # residuation on all triples

            def leq(x, y):
                return h.meet[x][y] == x

            for a in h.elements():
                for b in h.elements():
                    if implication_by_search(h.meet, leq, h.n, a, b) != h.impl[a][b]:
                        ok = False
            count += 1
    elapsed = time.perf_counter() - start
    report(6, ok and elapsed < 10.0,
           f"interior formula == brute force on all {count} topologies "
           f"with <= 3 points, {elapsed:.2f}s")


def test_criterion_07_chain_non_boolean():
    c3 = heyting_from_chain(3)
    half = 1
    excluded_middle = c3.join[half][c3.neg(half)]
    cls = classify_elements(c3)
    ok = (excluded_middle == half
          and not cls.is_boolean
          and cls.regular == frozenset({c3.bottom, c3.top}))
    report(7, ok, "1/2 \\/ not(1/2) = 1/2; is_boolean false; regular = {0, 1}")


def test_criterion_08_non_heyting_rejection():
    rejected = 0
    for tables in (pentagon_lattice(), diamond_lattice()):
        try:
            heyting_from_lattice(*tables)
        except NotHeyting as exc:
            if exc.witness is not None:
                rejected += 1
    chains_ok = True
    for n in range(1, 11):
        chain = heyting_from_chain(n)
        rebuilt = heyting_from_lattice(chain.meet, chain.join)
        chains_ok = chains_ok and rebuilt.impl == chain.impl
    report(8, rejected == 2 and chains_ok,
           "N5 and M3 rejected with witnesses; chains of length 1..10 accepted")


def test_criterion_09_abelian_bookkeeping():
    ok = ext(cyclic(28), cyclic(2)) == cyclic(2)
    ok &= iso_check(cyclic(15), cyclic(3).direct_sum(cyclic(5)))
    ok &= not iso_check(cyclic(8), cyclic(4).direct_sum(cyclic(2)))
    ok &= cyclic_homology(28, 1) == cyclic(28)
    ok &= cyclic_homology(28, 2) == FGAbelianGroup()
    rep = extension_count(cyclic(28), cyclic(2))
    ok &= rep.direct_sum_order == 56
    for m in range(1, 13):
        for n in range(1, 13):
            e = ext(cyclic(m), cyclic(n)).order()
            ok &= e == gcd(m, n) == ext_order_brute(m, n)
    report(9, ok, "Ext(Z28,Z2)=Z2; Z15 split true, Z8 split false; "
                  "homology table; order 56; |Ext| = gcd vs oracle, m,n <= 12")


def test_criterion_10_jacobian_fidelity():
    systems = builtin_systems()
    v = Poly.variable
    u1x, u1y = v("u1_x"), v("u1_y")
    u2x, u2y = v("u2_x"), v("u2_y")
    zero = Poly()

    jac = formal_jacobian(systems["r1"])
    row_ok = jac[0] == [zero, zero, zero, zero,
                        2 * u1x * (2 * u1x ** 2 - 1), zero, zero,
                        4 * u2y ** 3]
    row_ok &= jac[1] == [zero, zero, zero, zero, zero,
                         6 * u1y ** 5 - u2x, 6 * u2x ** 5 - u1y, zero]

    jd = formal_jacobian(systems["dalembert"])
    dal_ok = jd == [[zero, zero, v("u_xy"), -v("u_y"), -v("u_x"),
                     zero, v("u"), zero]]

    factor = 2 * u1x * (2 * u1x ** 2 - 1)
    expected = [
        factor * (6 * u1y ** 5 - u2x),
        factor * (6 * u2x ** 5 - u1y),
        -(6 * u1y ** 5 - u2x) * (4 * u2y ** 3),
        -(6 * u2x ** 5 - u1y) * (4 * u2y ** 3),
    ]
    minors_ok = [det for _, det in minor_determinants(jac, 2)
                 if not det.is_zero()] == expected
    report(10, row_ok and dal_ok and minors_ok,
           "both displayed Jacobians and the four 2x2 minors match "
           "after canonicalization")


def test_criterion_11_singular_classification():
    systems = builtin_systems()
    sigma0 = classify_point(
        systems["r1"],
        {"x": Fraction(2), "y": Fraction(-1), "u1": Fraction(5), "u2": Fraction(4)},
        2,
    )
    q = 2 ** -0.25
    regular = classify_point(
        systems["r1"], {"u1_x": 1.0, "u2_y": 0.0, "u2_x": q, "u1_y": q}, 2
    )
    u = CDElement.basis(4, 3) + CDElement.basis(4, 10)
    sedenion = classify_point(systems["dalembert"], {"u": u}, 1)
    ok = (not sigma0.regular and regular.regular
          and not sedenion.regular and norm_sq(u) == 2)
    report(11, ok, "zero-derivative locus Singular; derived real point "
                   "Regular; u=e3+e10 Singular despite norm 2")


def test_criterion_12_heat_decoupling():
    rng = np.random.default_rng(2718)
    nodes, dim = 64, 16
    h = 1.0 / nodes
    dt = h * h / 2
    field = GridField(rng.standard_normal((nodes, dim)), h, level=4)
    evolved = heat_evolve(field, dt, 100)
    decoupled = all(
        np.array_equal(
            heat_evolve(field.component(k), dt, 100).values[:, 0],
            evolved.values[:, k],
        )
        for k in range(dim)
    )

    const = GridField(np.full((nodes, dim), 0.81), h, level=4)
    fixed = np.array_equal(heat_evolve(const, dt, 100).values, const.values)

    x = np.arange(nodes) / nodes
    mode = np.zeros((nodes, dim))
    mode[:, 5] = np.sin(2 * np.pi * x)
    stepped = heat_evolve(GridField(mode, h, level=4), dt, 1)
    factor = float(stepped.values[:, 5] @ mode[:, 5] / (mode[:, 5] @ mode[:, 5]))
    decay_ok = abs(factor - single_mode_decay_factor(nodes, dt)) < 1e-12

    report(12, decoupled and fixed and decay_ok,
           "100 steps on 64 nodes bitwise equal to 16 component runs; "
           "constants fixed; mode decay within 1e-12 of the scheme symbol")


def test_criterion_13_jet_dimensions():
    ok = (jet_dimensions(2, 2, 1) == (4, 4)
          and jet_dimensions(2, 2, 2, "full") == (4, 4, 8))
    report(13, ok, "(2,2,1) -> (4,4) and (2,2,2,full) -> (4,4,8)")
