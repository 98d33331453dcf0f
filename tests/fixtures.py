"""Small named structures the tests build algebras from: the two
five-element lattices that are not distributive (N5 and M3, given as meet
and join tables), and the discrete, indiscrete and Sierpinski topologies.
"""

from hyperlab.heyting import FiniteTopology, InvalidLattice


def discrete_topology(points) -> FiniteTopology:
    n = len(points)
    return FiniteTopology(tuple(points), tuple(range(1 << n)))


def indiscrete_topology(points) -> FiniteTopology:
    return FiniteTopology(tuple(points), (0, (1 << len(points)) - 1))


def sierpinski_topology() -> FiniteTopology:
    return FiniteTopology(("a", "b"), (0, 0b01, 0b11))


def pentagon_lattice():
    """N5: 0 < a < b < 1 and 0 < c < 1 with c incomparable to a, b."""
    # elements: 0, a, b, c, 1
    order = {(0, 0), (1, 1), (2, 2), (3, 3), (4, 4),
             (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)}

    def leq(x, y):
        return (x, y) in order

    return _lattice_tables_from_order(5, leq)


def diamond_lattice():
    """M3: three incomparable atoms between 0 and 1."""
    order = {(i, i) for i in range(5)} | {(0, i) for i in range(5)} | {
        (i, 4) for i in range(5)}

    def leq(x, y):
        return (x, y) in order

    return _lattice_tables_from_order(5, leq)


def _lattice_tables_from_order(n, leq):
    meet = [[None] * n for _ in range(n)]
    join = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            lower = [c for c in range(n) if leq(c, a) and leq(c, b)]
            upper = [c for c in range(n) if leq(a, c) and leq(b, c)]
            for c in lower:
                if all(leq(d, c) for d in lower):
                    meet[a][b] = c
            for c in upper:
                if all(leq(c, d) for d in upper):
                    join[a][b] = c
            if meet[a][b] is None or join[a][b] is None:
                raise InvalidLattice("order is not a lattice")
    return meet, join

