"""Finite Heyting algebras: construction, laws, filters, quotients.

Elements of a finite algebra are dense indices 0..n-1; meet, join and
implication are n x n index tables, stored as lists of rows (their JSON
form), and the order is recovered as a <= b iff a /\\ b = a.  Constructors
exist for finite topologies, chains, poset up-sets, and raw lattice tables
(where the implication is found by search or the construction is
rejected).  Ground sets are capped at 16 points so subsets fit in bitmask
ints, and algebras at 256 elements; both caps are checked before any table
is built.

Every law is checked on all pairs and all triples, as whole-table numpy
comparisons on the int32 copies of the tables that construction builds
once (``HeytingAlgebra.arrays``): a law in two variables is one
n x n comparison, and a law in three runs one (k, n, n) comparison of all
(a, b, c) per block of k first arguments a (``exact.blocks``), so no
array holds more than max(_BUDGET, n^2) entries.  Only the construction
check of algebras of at most LOOP_MAX elements stays a plain loop, which
finishes before numpy's per-call cost is paid back.  When a check fails,
both forms name the law that the loop over a, then b, then c finds first.
The implication of a topology is the interior of (complement of a) union
b; opens are closed under union, so that interior is the union of the
opens it contains, found for all b of a block of a at once.

Filters, quotients and complements come from the order, not from
searches: every filter of a finite lattice is the up-set of one element m,
the meet of its members; x and y are identified modulo that filter exactly
when x /\\ m = y /\\ m; and x has a complement exactly when x \\/ neg x is
top, the complement then being neg x.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .exact import blocks

MAX_POINTS = 16
MAX_LATTICE = 256
# Up to this many elements construction checks the laws by plain Python
# loops: each numpy call costs microseconds whatever the table size, and
# below about this size the loops finish first.
LOOP_MAX = 5
# Entries of one block of a three-variable law.  Each numpy call costs
# microseconds whatever its size, so the laws run on blocks of first
# arguments, all of them in one block up to 25 elements.  A block's int32
# arrays stay at 64 KiB, below the size from which glibc's malloc maps
# fresh pages for each array: blocks of 2^16 entries made 64 and 128
# elements slower than one first argument per block.
_BUDGET = 1 << 14


class InvalidTopology(ValueError):
    pass


class InvalidPoset(ValueError):
    pass


class InvalidFilter(ValueError):
    pass


class NotHeyting(ValueError):
    """Lattice admits no relative pseudo-complement; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvalidLattice(ValueError):
    pass


# ---------------------------------------------------------------------------
# ground structures
# ---------------------------------------------------------------------------

def _popcount(x: int) -> int:
    return bin(x).count("1")


def _is_name_list(value) -> bool:
    """Whether a JSON value is a list of names (strings)."""
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


@dataclass(frozen=True)
class FiniteTopology:
    """Open-set family on a small named point set, opens as bitmasks."""

    points: tuple
    opens: tuple

    def __post_init__(self):
        if len(self.points) > MAX_POINTS:
            raise InvalidTopology(f"at most {MAX_POINTS} points supported")
        # the element labels join the point names, as "{a,b}"
        if not all(isinstance(p, str) for p in self.points):
            raise InvalidTopology("point names must be strings")
        if any(c in p for p in self.points for c in ",{}"):
            raise InvalidTopology("point names must not hold ',', '{' or '}'")
        if len(set(self.points)) < len(self.points):
            raise InvalidTopology("point names must be distinct")
        full = (1 << len(self.points)) - 1
        opens = set(self.opens)
        # the opens are the elements of the Heyting algebra, so the lattice
        # cap comes before the closure check over all pairs of opens, which
        # grows fourfold per point of a discrete topology
        if len(opens) > MAX_LATTICE:
            raise InvalidLattice(f"size capped at {MAX_LATTICE}")
        if 0 not in opens or full not in opens:
            raise InvalidTopology("opens must contain the empty and full sets")
        for a in opens:
            if a & ~full:
                raise InvalidTopology("open set refers to missing points")
            for b in opens:
                if (a | b) not in opens or (a & b) not in opens:
                    raise InvalidTopology("opens not closed under union/intersection")

    @property
    def full_mask(self) -> int:
        return (1 << len(self.points)) - 1

    def interior(self, mask: int) -> int:
        """Largest open contained in the given subset: the union of the
        opens it contains, which is open because opens are closed under
        union."""
        inner = 0
        for o in self.opens:
            if o & ~mask == 0:
                inner |= o
        return inner

    def mask_name(self, mask: int) -> list:
        return [p for i, p in enumerate(self.points) if mask >> i & 1]

    @classmethod
    def from_subsets(cls, points, subsets) -> "FiniteTopology":
        index = {p: i for i, p in enumerate(points)}
        masks = []
        for s in subsets:
            if not index.keys() >= set(s):
                raise InvalidTopology("open set refers to missing points")
            mask = 0
            for p in s:
                mask |= 1 << index[p]
            masks.append(mask)
        return cls(tuple(points), tuple(sorted(set(masks))))

    def to_json_dict(self) -> dict:
        return {
            "points": list(self.points),
            "opens": [self.mask_name(m) for m in sorted(self.opens)],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiniteTopology":
        points, opens = data.get("points"), data.get("opens")
        if not _is_name_list(points):
            raise InvalidTopology("point names must be strings")
        if not isinstance(opens, list) or not all(map(_is_name_list, opens)):
            raise InvalidTopology("opens must be a list of lists of point names")
        return cls.from_subsets(points, opens)


@dataclass(frozen=True)
class FinitePoset:
    """Partial order as a boolean matrix; reflexivity, antisymmetry and
    transitivity are verified (preorders are rejected)."""

    elements: tuple
    le: tuple  # le[i][j] == True iff element i <= element j

    def __post_init__(self):
        n = len(self.elements)
        if len(set(self.elements)) < n:
            raise InvalidPoset("element names must be distinct")
        if len(self.le) != n or any(len(row) != n for row in self.le):
            raise InvalidPoset("order matrix shape mismatch")
        for i in range(n):
            if not self.le[i][i]:
                raise InvalidPoset("order not reflexive")
            for j in range(n):
                if i != j and self.le[i][j] and self.le[j][i]:
                    raise InvalidPoset("order not antisymmetric (preorder rejected)")
                for k in range(n):
                    if self.le[i][j] and self.le[j][k] and not self.le[i][k]:
                        raise InvalidPoset("order not transitive")

    @classmethod
    def from_pairs(cls, elements, pairs) -> "FinitePoset":
        index = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        le = [[i == j for j in range(n)] for i in range(n)]
        for a, b in pairs:
            if a not in index or b not in index:
                raise InvalidPoset("order pair refers to missing elements")
            le[index[a]][index[b]] = True
        # transitive closure before validation, by Warshall: after round
        # k, i <= j whenever a chain from i to j passes only through 0..k
        for k in range(n):
            for i in range(n):
                if le[i][k]:
                    le[i] = [x or y for x, y in zip(le[i], le[k])]
        return cls(tuple(elements), tuple(tuple(row) for row in le))

    def to_json_dict(self) -> dict:
        pairs = [
            [self.elements[i], self.elements[j]]
            for i in range(len(self.elements))
            for j in range(len(self.elements))
            if self.le[i][j] and i != j
        ]
        return {"elements": list(self.elements), "le": pairs}

    @classmethod
    def from_json_dict(cls, data: dict) -> "FinitePoset":
        elements, le = data.get("elements"), data.get("le")
        if not _is_name_list(elements):
            raise InvalidPoset("element names must be strings")
        # building and checking the order take n^3 steps, and the up-set
        # algebra refuses more than MAX_POINTS elements anyway
        if len(elements) > MAX_POINTS:
            raise InvalidPoset(f"at most {MAX_POINTS} elements supported")
        if not isinstance(le, list) or not all(
                _is_name_list(pair) and len(pair) == 2 for pair in le):
            raise InvalidPoset("le must be a list of [lower, upper] element-name pairs")
        return cls.from_pairs(elements, [tuple(p) for p in le])


# ---------------------------------------------------------------------------
# the algebra
# ---------------------------------------------------------------------------

def _check_index_table(name: str, table, n: int) -> np.ndarray:
    """An n x n table of integer indices in 0..n-1 as an int32 array (the
    slab gathers at n = 256 ran twice as fast as on int64); anything else
    is refused, as numpy would wrap a negative index silently."""
    if (not isinstance(table, (list, tuple)) or len(table) != n
            or any(not isinstance(row, (list, tuple)) or len(row) != n
                   for row in table)):
        raise InvalidLattice(f"{name} table must be {n} x {n}")
    kinds = set()
    for row in table:
        kinds.update(map(type, row))
    if any(kind is bool or not issubclass(kind, int) for kind in kinds):
        raise InvalidLattice(f"{name} entries must be integers")
    if min(map(min, table)) < 0 or max(map(max, table)) >= n:
        raise InvalidLattice(f"{name} entries must lie in 0..{n - 1}")
    return np.array(table, dtype=np.int32)


def _table_size(meet) -> int:
    """The n of an n x n meet table, with 1 <= n <= MAX_LATTICE."""
    if not isinstance(meet, (list, tuple)):
        raise InvalidLattice("meet table must be a list of rows")
    if not meet:
        raise InvalidLattice("algebra needs at least one element")
    if len(meet) > MAX_LATTICE:
        raise InvalidLattice(f"size capped at {MAX_LATTICE}")
    return len(meet)


_PAIR_LAWS = ("idempotence fails", "bounds are not extreme",
              "meet not commutative", "join not commutative", "absorption fails")
_TRIPLE_LAWS = ("meet not associative", "join not associative",
                "meet does not distribute over join",
                "join does not distribute over meet", "residuation law fails")


def check_laws_by_loops(meet, join, impl, bottom: int, top: int) -> None:
    """The laws as plain loops over a, then b, then c: the fast form for
    small tables, and the order whose first failure both forms report."""
    rng = range(len(meet))
    for a in rng:
        if meet[a][a] != a or join[a][a] != a:
            raise InvalidLattice(_PAIR_LAWS[0])
        if meet[bottom][a] != bottom or meet[a][top] != a:
            raise InvalidLattice(_PAIR_LAWS[1])
        for b in rng:
            if meet[a][b] != meet[b][a]:
                raise InvalidLattice(_PAIR_LAWS[2])
            if join[a][b] != join[b][a]:
                raise InvalidLattice(_PAIR_LAWS[3])
            if meet[a][join[a][b]] != a or join[a][meet[a][b]] != a:
                raise InvalidLattice(_PAIR_LAWS[4])
    for a in rng:
        for b in rng:
            for c in rng:
                if meet[meet[a][b]][c] != meet[a][meet[b][c]]:
                    raise InvalidLattice(_TRIPLE_LAWS[0])
                if join[join[a][b]][c] != join[a][join[b][c]]:
                    raise InvalidLattice(_TRIPLE_LAWS[1])
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    raise InvalidLattice(_TRIPLE_LAWS[2])
                if join[a][meet[b][c]] != meet[join[a][b]][join[a][c]]:
                    raise InvalidLattice(_TRIPLE_LAWS[3])
                # residuation: a /\ c <= b  iff  c <= a -> b
                ac = meet[a][c]
                if (meet[ac][b] == ac) != (meet[c][impl[a][b]] == c):
                    raise InvalidLattice(_TRIPLE_LAWS[4])


def _raise_first_failure(laws, messages) -> None:
    """Raise InvalidLattice with the message of the loops' first failure.

    Each law is a boolean array of its failures indexed like the loops,
    [a, b] or [a, b, c]; a law of a alone is an (n, 1) column, failing at
    every b, so it comes before the pair laws of its row.  argmax over
    their union finds the first failing tuple in loop order, and the
    message is that of the first law failing there."""
    bad = functools.reduce(np.logical_or, laws)
    if bad.any():
        first = np.unravel_index(np.argmax(bad), bad.shape)
        raise InvalidLattice(next(message for message, law in zip(messages, laws)
                                  if np.broadcast_to(law, bad.shape)[first]))


def check_laws_by_slabs(meet, join, impl, bottom: int, top: int) -> None:
    """The same laws as whole-table comparisons: the pair laws at once, the
    triple laws on one [a, b, c] array per block of first arguments a, on
    the tables as given (int32 arrays from ``HeytingAlgebra``)."""
    meet, join, impl = map(np.asarray, (meet, join, impl))
    n = len(meet)
    idx = np.arange(n)
    leq = meet == idx[:, None]  # leq[a, b]: a <= b
    leq_t = np.ascontiguousarray(leq.T)
    _raise_first_failure((
        ((meet[idx, idx] != idx) | (join[idx, idx] != idx))[:, None],
        (~leq[bottom] | ~leq[:, top])[:, None],
        meet != meet.T,
        join != join.T,
        (np.take_along_axis(meet, join, axis=1) != idx[:, None])
        | (np.take_along_axis(join, meet, axis=1) != idx[:, None]),
    ), _PAIR_LAWS)
    # np.take casts its indices to intp on every call: at 256 elements that
    # is a 512 KiB copy per call, which made the blocks slower than the
    # per-a slabs, so the two index tables are cast once
    meet_ix, join_ix = meet.astype(np.intp), join.astype(np.intp)
    for block in blocks(n, n * n, _BUDGET):
        ma, ja = meet[block], join[block]
        _raise_first_failure((
            meet[ma] != np.take(ma, meet_ix, axis=1),
            join[ja] != np.take(ja, join_ix, axis=1),
            np.take(ma, join_ix, axis=1) != join[ma[:, :, None], ma[:, None, :]],
            np.take(ja, meet_ix, axis=1) != meet[ja[:, :, None], ja[:, None, :]],
            leq[ma].transpose(0, 2, 1) != leq_t[impl[block]],
        ), _TRIPLE_LAWS)


class HeytingAlgebra:
    """Finite bounded lattice with a residuated implication.

    Construction first checks the shape of the input: at most MAX_LATTICE
    elements, square tables of integer indices in range, and bounds and
    labels in range.  It then always checks, over all pairs and triples,
    the bounded-lattice laws, both distributivity identities, and the
    residuation law a /\\ c <= b  iff  c <= (a -> b): by
    ``check_laws_by_loops`` up to LOOP_MAX elements, by
    ``check_laws_by_slabs`` above.  A failure raises InvalidLattice with
    the message of the first failing check in the order a, b, c, then the
    laws in the order of ``_PAIR_LAWS`` and ``_TRIPLE_LAWS``.
    """

    def __init__(self, meet, join, impl, bottom: int, top: int, labels=None):
        self.n = _table_size(meet)
        tables = [_check_index_table(name, table, self.n)
                  for name, table in (("meet", meet), ("join", join), ("impl", impl))]
        for name, value in (("bottom", bottom), ("top", top)):
            if isinstance(value, bool) or not isinstance(value, int) \
                    or not 0 <= value < self.n:
                raise InvalidLattice(f"{name} must be an index in 0..{self.n - 1}")
        if labels is not None and (not isinstance(labels, (list, tuple))
                                   or len(labels) != self.n):
            raise InvalidLattice(f"labels must be a list of {self.n} names")
        self.meet = [list(row) for row in meet]
        self.join = [list(row) for row in join]
        self.impl = [list(row) for row in impl]
        # the int32 meet, join and impl tables that the slab laws and
        # ``law_report`` read, kept read-only beside the lists
        for table in tables:
            table.flags.writeable = False
        self.arrays = tuple(tables)
        self.bottom = bottom
        self.top = top
        self.labels = list(labels) if labels is not None else [str(i) for i in range(self.n)]
        if self.n <= LOOP_MAX:
            check_laws_by_loops(self.meet, self.join, self.impl, bottom, top)
        else:
            check_laws_by_slabs(*tables, bottom, top)

    # order and negation ----------------------------------------------------

    def leq(self, a: int, b: int) -> bool:
        return self.meet[a][b] == a

    def up_set(self, a: int) -> frozenset:
        """Every element above a."""
        return frozenset(b for b, ab in enumerate(self.meet[a]) if ab == a)

    def neg(self, x: int) -> int:
        return self.impl[x][self.bottom]

    def elements(self):
        return range(self.n)

    # serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "size": self.n,
            "bottom": self.bottom,
            "top": self.top,
            "labels": self.labels,
            "meet": self.meet,
            "join": self.join,
            "impl": self.impl,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "HeytingAlgebra":
        return cls(data.get("meet"), data.get("join"), data.get("impl"),
                   data.get("bottom"), data.get("top"), labels=data.get("labels"))

    def __repr__(self):
        return f"HeytingAlgebra(n={self.n})"


# -- constructors ---------------------------------------------------------------

def heyting_from_topology(topology: FiniteTopology) -> HeytingAlgebra:
    """Elements are the open sets ordered by inclusion; a -> b is the
    interior of (complement of a) union b, the union of the opens o with
    o & a & ~b == 0, computed for all b of a block of a at a time.  A
    topology has at most MAX_LATTICE opens."""
    opens = sorted(topology.opens, key=lambda m: (_popcount(m), m))
    masks = np.array(opens, dtype=np.int64)
    index = np.zeros(topology.full_mask + 1, dtype=np.int64)
    index[masks] = np.arange(len(opens))  # element index of each open mask
    column = masks[:, None]
    impl = np.empty((len(opens), len(opens)), dtype=np.int64)
    for block in blocks(len(opens), len(opens) ** 2, _BUDGET):
        # [a, o, b]: o lies in (~a | b)
        inside = column & (masks[block, None] & ~masks)[:, None] == 0
        impl[block] = index[np.bitwise_or.reduce(np.where(inside, column, 0), axis=1)]
    labels = ["{" + ",".join(topology.mask_name(m)) + "}" for m in opens]
    return HeytingAlgebra(index[column & masks].tolist(),
                          index[column | masks].tolist(), impl.tolist(),
                          int(index[0]), int(index[topology.full_mask]),
                          labels=labels)


def heyting_from_chain(n: int) -> HeytingAlgebra:
    """The n-element chain 0 < 1/(n-1) < ... < 1 with
    p -> q = q when p > q and 1 otherwise; Boolean only for n <= 2."""
    if n < 1:
        raise InvalidLattice("chain needs at least one element")
    if n > MAX_LATTICE:
        # before the n x n tables, which a huge n would not fit in memory
        raise InvalidLattice(f"size capped at {MAX_LATTICE}")
    rng = range(n)
    meet = [[min(a, b) for b in rng] for a in rng]
    join = [[max(a, b) for b in rng] for a in rng]
    impl = [[(b if a > b else n - 1) for b in rng] for a in rng]
    if n == 1:
        labels = ["0"]
    else:
        labels = ["0"] + [f"{k}/{n - 1}" for k in range(1, n - 1)] + ["1"]
    return HeytingAlgebra(meet, join, impl, 0, n - 1, labels=labels)


def heyting_from_poset_upsets(poset: FinitePoset, direction: str = "up") -> HeytingAlgebra:
    """Up-sets (or down-sets) of a finite poset form a topology; delegate.

    The sets are found by testing all 2^n subsets at once, and more than
    MAX_LATTICE of them are rejected before the topology is built."""
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    n = len(poset.elements)
    if n > MAX_POINTS:
        raise InvalidPoset(f"at most {MAX_POINTS} elements supported")
    subsets = np.arange(1 << n, dtype=np.int64)
    closed = np.ones(1 << n, dtype=bool)
    for i in range(n):
        above = sum(1 << j for j in range(n)
                    if (poset.le[i][j] if direction == "up" else poset.le[j][i]))
        closed &= (subsets >> i & 1 == 0) | (subsets & above == above)
    opens = subsets[closed]
    if len(opens) > MAX_LATTICE:
        raise InvalidLattice(f"size capped at {MAX_LATTICE}")
    topology = FiniteTopology(poset.elements, tuple(opens.tolist()))
    return heyting_from_topology(topology)


def heyting_from_lattice(meet, join) -> HeytingAlgebra:
    """Search the implication of a bounded lattice.

    For each a, one slab finds for every b the first c with a /\\ c <= b
    that lies above every such c.
    Raises NotHeyting with the first (a, b) that has no such c; on finite
    lattices this happens exactly when the lattice is not distributive.
    """
    n = _table_size(meet)
    meet_arr = _check_index_table("meet", meet, n)
    join_arr = _check_index_table("join", join, n)
    idx = np.arange(n)
    leq = meet_arr == idx[:, None]  # leq[x, y]: x <= y
    bottoms = np.flatnonzero(leq.all(axis=1))
    tops = np.flatnonzero((join_arr == idx[:, None]).all(axis=1))
    if not len(bottoms) or not len(tops):
        raise InvalidLattice("lattice is not bounded")
    not_leq = (~leq).astype(np.float32)  # counts up to 256 are exact
    impl = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        below = leq[meet_arr[a]].T  # [b, c]: a /\ c <= b
        # c is greatest when no d with a /\ d <= b lies outside c's down-set
        greatest = below & (below.astype(np.float32) @ not_leq == 0)
        found = greatest.any(axis=1)
        if not found.all():
            b = int(np.argmin(found))
            raise NotHeyting(f"no greatest c with {a} /\\ c <= {b}", witness=(a, b))
        impl[a] = np.argmax(greatest, axis=1)
    return HeytingAlgebra(meet, join, impl.tolist(), int(bottoms[-1]), int(tops[-1]))


# ---------------------------------------------------------------------------
# classification and law reports
# ---------------------------------------------------------------------------

@dataclass
class ElementClassification:
    regular: frozenset
    complemented: frozenset
    is_boolean: bool
    h_reg: HeytingAlgebra
    h_comp: HeytingAlgebra

    def to_json_dict(self) -> dict:
        return {
            "regular": sorted(self.regular),
            "complemented": sorted(self.complemented),
            "is_boolean": self.is_boolean,
            "regular_size": len(self.regular),
            "complemented_size": len(self.complemented),
        }


def classify_elements(h: HeytingAlgebra) -> ElementClassification:
    """Regular (fixed by double negation) and complemented elements, with
    the two induced Boolean algebras.

    H_comp is a subalgebra of H; H_reg keeps meet, negation and
    implication but joins through x \\/ y := neg(neg x /\\ neg y).
    """
    neg = h.neg
    regular = frozenset(x for x in h.elements() if neg(neg(x)) == x)
    # a complement, when there is one, is the negation
    complemented = frozenset(x for x in h.elements() if h.join[x][neg(x)] == h.top)
    is_boolean = len(regular) == h.n

    def subalgebra(members, join_rule):
        members = sorted(members)
        index = {m: i for i, m in enumerate(members)}
        meet = [[index[h.meet[a][b]] for b in members] for a in members]
        join = [[index[join_rule(a, b)] for b in members] for a in members]
        impl = [[index[h.impl[a][b]] for b in members] for a in members]
        return HeytingAlgebra(meet, join, impl, index[h.bottom], index[h.top],
                              labels=[h.labels[m] for m in members])

    h_comp = subalgebra(complemented, lambda a, b: h.join[a][b])
    h_reg = subalgebra(regular, lambda a, b: neg(h.meet[neg(a)][neg(b)]))
    return ElementClassification(regular, complemented, is_boolean, h_reg, h_comp)


_AXIOM_NAMES = [
    "antisymmetry", "top_detection", "weakening", "distribution_of_implication",
    "meet_left", "meet_right", "adjunction", "join_left", "join_right",
    "case_split", "ex_falso",
]


def _intuitionistic_axioms(h: HeytingAlgebra, meet, join, impl) -> dict:
    """The eleven propositional axioms, quantified over all tuples: pairs
    as whole tables indexed [x, y], triples as one [x, y, z] array per
    block of x."""
    top, bot = h.top, h.bottom
    col, row = np.arange(h.n)[:, None], np.arange(h.n)[None, :]
    entails = impl == top  # entails[x, y]: x -> y is top
    results = {name: True for name in _AXIOM_NAMES}
    results["antisymmetry"] = not (entails & entails.T & (col != row)).any()
    results["top_detection"] = not (entails[top] & (row[0] != top)).any()
    results["weakening"] = bool(entails[col, impl.T].all())
    results["meet_left"] = bool(entails[meet, col].all())
    results["meet_right"] = bool(entails[meet, row].all())
    results["adjunction"] = bool(entails[col, impl[row, meet]].all())
    results["join_left"] = bool(entails[col, join].all())
    results["join_right"] = bool(entails[row, join].all())
    results["ex_falso"] = bool(entails[bot].all())
    # np.take and a fancy index cast an int32 index table to intp on every
    # use, so impl is cast once, as in check_laws_by_slabs; and entails is
    # read flat at x * n + y (below 2^16, so int32 holds it), one index
    # array to cast per law and block instead of two
    impl_ix = impl.astype(np.intp)
    entails_at = entails.ravel()
    for block in blocks(h.n, h.n ** 2, _BUDGET):
        ix = impl[block]
        rows = ix * h.n  # the flat row of each x -> y
        if results["distribution_of_implication"]:
            # (x -> (y -> z)) -> ((x -> y) -> (x -> z))
            results["distribution_of_implication"] = bool(entails_at[
                np.take(rows, impl_ix, axis=1) + impl[ix[:, :, None], ix[:, None, :]]].all())
        if results["case_split"]:
            # (x -> z) -> ((y -> z) -> ((x \/ y) -> z))
            results["case_split"] = bool(
                entails_at[rows[:, None, :] + impl[impl_ix, impl[join[block]]]].all())
    return results


@dataclass
class LawReport:
    axioms: dict
    regular_de_morgan: bool
    weak_de_morgan: bool
    seven_conditions: dict
    seven_agree: bool
    triple_negation: bool
    negation_fixed_points: list
    witness: dict = field(default_factory=dict)

    def all_mandatory_pass(self) -> bool:
        return (all(self.axioms.values()) and self.regular_de_morgan
                and self.weak_de_morgan and self.triple_negation)

    def seven_block_passes(self) -> bool:
        return all(self.seven_conditions.values())

    def to_json_dict(self) -> dict:
        return {
            "axioms": self.axioms,
            "regular_de_morgan": self.regular_de_morgan,
            "weak_de_morgan": self.weak_de_morgan,
            "seven_conditions": self.seven_conditions,
            "seven_agree": self.seven_agree,
            "triple_negation": self.triple_negation,
            "negation_fixed_points": self.negation_fixed_points,
            "witness": self.witness,
        }


def law_report(h: HeytingAlgebra) -> LawReport:
    """Exhaustive law check: the eleven axioms, both De Morgan laws and
    triple negation (all must hold in any valid algebra), plus the block of
    seven mutually equivalent stronger conditions, which passes or fails as
    one (their agreement is itself reported).  Each law in two variables is
    one comparison over the whole table of pairs, or of the pairs of
    regular elements; the two axioms in three variables run one array per
    block of first variables."""
    meet, join, impl = h.arrays
    idx = np.arange(h.n)
    neg = impl[:, h.bottom]
    nn = neg[neg]
    regulars = np.flatnonzero(nn == idx)
    witness = {}

    def holds(same):
        return bool(same.all())

    def pairs(table, xs):
        return table[np.ix_(xs, xs)]

    def strong_dual(xs):
        return holds(neg[pairs(meet, xs)] == pairs(join, neg[xs]))

    regular_dm = holds(neg[join] == pairs(meet, neg))
    weak_dm = holds(neg[meet] == nn[pairs(join, neg)])
    triple = holds(neg[nn] == neg)
    dual_all = strong_dual(idx)
    join_reg = pairs(join, regulars)
    excluded = join[neg, nn]

    cond = {}
    cond["both_de_morgan"] = regular_dm and dual_all
    cond["strong_dual_all"] = dual_all
    cond["strong_dual_regular"] = strong_dual(regulars)
    cond["double_neg_join_all"] = holds(nn[join] == pairs(join, nn))
    cond["join_of_regular_regular"] = holds(nn[join_reg] == join_reg)
    cond["regular_join_formula"] = holds(
        neg[pairs(meet, neg[regulars])] == join_reg)
    cond["weak_excluded_middle"] = holds(excluded == h.top)
    if not cond["weak_excluded_middle"]:
        x = int(np.argmax(excluded != h.top))
        witness["weak_excluded_middle"] = {
            "x": h.labels[x],
            "value": h.labels[int(excluded[x])],
        }

    fixed = [h.labels[x] for x in np.flatnonzero(neg == idx).tolist()]
    return LawReport(
        axioms=_intuitionistic_axioms(h, meet, join, impl),
        regular_de_morgan=regular_dm,
        weak_de_morgan=weak_dm,
        seven_conditions=cond,
        seven_agree=len(set(cond.values())) == 1,
        triple_negation=triple,
        negation_fixed_points=fixed,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# filters, quotients, morphisms
# ---------------------------------------------------------------------------

def _check_members(h: HeytingAlgebra, members: set) -> None:
    if not members <= set(h.elements()):
        raise InvalidFilter(f"filter members must lie in 0..{h.n - 1}")


@dataclass(frozen=True)
class Filter:
    """Meet-closed upward-closed subset containing the top element.

    In a finite lattice every filter is the up-set of ``least``, the meet
    of its members, so three O(n) tests check a set: it holds top, it
    holds its own meet, and it is the whole up-set of that meet."""

    algebra: HeytingAlgebra
    members: frozenset
    least: int = field(init=False)

    def __post_init__(self):
        h = self.algebra
        _check_members(h, self.members)
        if h.top not in self.members:
            raise InvalidFilter("filter must contain the top element")
        least = functools.reduce(lambda x, y: h.meet[x][y], self.members, h.top)
        if least not in self.members:
            raise InvalidFilter("filter not closed under meet")
        if self.members != h.up_set(least):
            raise InvalidFilter("filter not upward closed")
        object.__setattr__(self, "least", least)

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def to_json_dict(self) -> dict:
        return {"members": sorted(self.members)}


def filter_generate(h: HeytingAlgebra, generators) -> Filter:
    """Smallest filter containing the generators, which must be elements:
    the up-set of their meet, {top} when there are none."""
    generators = set(generators)
    _check_members(h, generators)
    least = functools.reduce(lambda x, g: h.meet[x][g], generators, h.top)
    return Filter(h, h.up_set(least))


def quotient_by_filter(h: HeytingAlgebra, f: Filter):
    """Quotient by x ~ y iff x -> y and y -> x both lie in the filter.

    With f the up-set of m, that holds exactly when x /\\ m = y /\\ m, so
    the classes are grouped by that key.  Returns (quotient algebra,
    projection list).  Class representatives are least indices, and classes
    are numbered in the order of their representatives; the projection is a
    morphism whose kernel is the filter, and the induced operations are
    checked to be representative-independent.
    """
    if f.algebra is not h:
        raise InvalidFilter("filter belongs to a different algebra")
    keys = h.meet[f.least]  # x /\ m for every x (the meet commutes)
    first = {}
    for x, key in enumerate(keys):
        first.setdefault(key, x)
    reps = list(first.values())
    number = {key: i for i, key in enumerate(first)}
    proj = [number[key] for key in keys]

    meet = [[proj[h.meet[a][b]] for b in reps] for a in reps]
    join = [[proj[h.join[a][b]] for b in reps] for a in reps]
    impl = [[proj[h.impl[a][b]] for b in reps] for a in reps]
    # well-definedness across representatives
    for alt in h.elements():
        if alt == reps[proj[alt]]:
            continue
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


@dataclass
class MorphismReport:
    clauses: dict
    failures: dict

    def is_morphism(self) -> bool:
        return all(self.clauses.values())

    def to_json_dict(self) -> dict:
        return {"clauses": self.clauses, "failures": self.failures}


def verify_morphism(h1: HeytingAlgebra, h2: HeytingAlgebra, f) -> MorphismReport:
    """Check the six morphism clauses of a total map on all pairs."""
    clauses = {name: True for name in
               ("bottom", "top", "meet", "join", "implication", "negation")}
    failures = {}

    def fail(name, info):
        clauses[name] = False
        failures.setdefault(name, info)

    if f[h1.bottom] != h2.bottom:
        fail("bottom", {"maps_to": f[h1.bottom]})
    if f[h1.top] != h2.top:
        fail("top", {"maps_to": f[h1.top]})
    for x in h1.elements():
        if f[h1.neg(x)] != h2.neg(f[x]):
            fail("negation", {"x": x})
        for y in h1.elements():
            if f[h1.meet[x][y]] != h2.meet[f[x]][f[y]]:
                fail("meet", {"x": x, "y": y})
            if f[h1.join[x][y]] != h2.join[f[x]][f[y]]:
                fail("join", {"x": x, "y": y})
            if f[h1.impl[x][y]] != h2.impl[f[x]][f[y]]:
                fail("implication", {"x": x, "y": y})
    return MorphismReport(clauses, failures)


def kernel(h1: HeytingAlgebra, h2: HeytingAlgebra, f) -> Filter:
    """Preimage of the top element, as a filter on the source."""
    return Filter(h1, frozenset(x for x in h1.elements() if f[x] == h2.top))


# ---------------------------------------------------------------------------
# Boolean rings
# ---------------------------------------------------------------------------

@dataclass
class BooleanRingReport:
    size: int
    idempotent: bool
    characteristic_two: bool
    ring_axioms: bool
    roundtrip_identity: bool
    char_map_isomorphism: bool
    exhaustive: bool

    def all_passed(self) -> bool:
        return (self.idempotent and self.characteristic_two and self.ring_axioms
                and self.roundtrip_identity and self.char_map_isomorphism)

    def to_json_dict(self) -> dict:
        return self.__dict__.copy()


class SetTooLarge(ValueError):
    pass


def boolean_ring_roundtrip(n_points: int) -> BooleanRingReport:
    """The ring of subsets, as bitmasks, under symmetric difference (^)
    and intersection (&).

    Verifies idempotence and characteristic two on every element; the ring
    axioms, the ring <-> algebra conversions round-tripping to the
    identity, and the characteristic-function isomorphism onto bit vectors
    (both operations respected, distinct elements sent to distinct
    vectors) are exhaustive for up to 5 points and seeded samples beyond
    that.
    """
    if n_points > MAX_POINTS:
        raise SetTooLarge(f"at most {MAX_POINTS} points supported")
    size = 1 << n_points
    full = size - 1
    elements = range(size)
    exhaustive = size <= 32
    if exhaustive:
        triples = itertools.product(elements, repeat=3)
        join_pairs = pairs = list(itertools.product(elements, repeat=2))
    else:
        import random

        rng = random.Random(0)
        triples = [(rng.randrange(size), rng.randrange(size), rng.randrange(size))
                   for _ in range(2000)]
        join_pairs = [(a & full, (a * 7919 + 13) & full) for a in range(2000)]
        pairs = [(a & full, (a * 104729 + 7) & full) for a in range(2000)]
    ring_axioms = all(
        (a ^ b) ^ c == a ^ (b ^ c) and (a & b) & c == a & (b & c)
        and a & (b ^ c) == (a & b) ^ (a & c) and a ^ b == b ^ a and a & b == b & a
        for a, b, c in triples)

    # ring -> algebra: x \/ y = x + y + xy and x' = 1 + x; algebra -> ring:
    # xy = x /\ y and x + y = (x /\ y') \/ (x' /\ y)
    def alg_join(a, b):
        return a ^ b ^ (a & b)

    roundtrip = all(alg_join(a & (full ^ b), (full ^ a) & b) == a ^ b
                    and alg_join(a, b) == a | b for a, b in join_pairs)

    # the characteristic-function map into bit vectors is the identity on
    # bitmask encodings; verify it respects both operations pointwise and
    # sends the distinct elements of the checked pairs to distinct vectors
    def chi(a):
        return [a >> i & 1 for i in range(n_points)]

    char_iso = all(
        chi(a & b) == [x & y for x, y in zip(chi(a), chi(b))]
        and chi(a ^ b) == [x ^ y for x, y in zip(chi(a), chi(b))]
        for a, b in pairs)
    checked = {x for pair in pairs for x in pair}
    injective = len(checked) == len({tuple(chi(a)) for a in checked})
    return BooleanRingReport(
        size=size,
        idempotent=all(a & a == a for a in elements),
        characteristic_two=all(a ^ a == 0 for a in elements),
        ring_axioms=ring_axioms,
        roundtrip_identity=roundtrip,
        char_map_isomorphism=char_iso and injective,
        exhaustive=exhaustive,
    )
