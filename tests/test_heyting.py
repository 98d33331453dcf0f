import importlib.util
import itertools
import json
import random
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperlab import heyting
from hyperlab.heyting import (
    MAX_LATTICE,
    FinitePoset,
    FiniteTopology,
    Filter,
    HeytingAlgebra,
    InvalidFilter,
    InvalidLattice,
    InvalidPoset,
    InvalidTopology,
    LawReport,
    NotHeyting,
    boolean_ring_roundtrip,
    check_laws_by_loops,
    check_laws_by_slabs,
    classify_elements,
    filter_generate,
    heyting_from_chain,
    heyting_from_lattice,
    heyting_from_poset_upsets,
    heyting_from_topology,
    kernel,
    law_report,
    quotient_by_filter,
    verify_morphism,
)

from fixtures import (
    diamond_lattice,
    discrete_topology,
    indiscrete_topology,
    pentagon_lattice,
    sierpinski_topology,
)
from oracles import (
    UncheckedTables,
    algebras_isomorphic,
    complemented_by_search,
    enumerate_topologies,
    filter_by_meet_closure,
    implication_by_search,
    quotient_by_relation_search,
)


# -- oracles: plain loops that the whole-table checks must agree with -----------
# check_laws_by_loops is the loop form the library keeps for small tables;
# the loops below are the forms it no longer runs.

def popcount_interior(topology, mask):
    """Largest open contained in mask, chosen as the open of most points."""
    best = 0
    for o in topology.opens:
        if o & ~mask == 0 and bin(o).count("1") > bin(best).count("1"):
            best = o
    return best


AXIOM_NAMES = [
    "antisymmetry", "top_detection", "weakening", "distribution_of_implication",
    "meet_left", "meet_right", "adjunction", "join_left", "join_right",
    "case_split", "ex_falso",
]


def axioms_by_loops(h):
    """The eleven propositional axioms, as loops over all tuples."""
    top, bot = h.top, h.bottom
    imp, meet, join = h.impl, h.meet, h.join
    results = {name: True for name in AXIOM_NAMES}
    for x in h.elements():
        if imp[top][x] == top and x != top:
            results["top_detection"] = False
        if imp[bot][x] != top:
            results["ex_falso"] = False
        for y in h.elements():
            if imp[x][y] == top and imp[y][x] == top and x != y:
                results["antisymmetry"] = False
            if imp[x][imp[y][x]] != top:
                results["weakening"] = False
            if imp[meet[x][y]][x] != top:
                results["meet_left"] = False
            if imp[meet[x][y]][y] != top:
                results["meet_right"] = False
            if imp[x][imp[y][meet[x][y]]] != top:
                results["adjunction"] = False
            if imp[x][join[x][y]] != top:
                results["join_left"] = False
            if imp[y][join[x][y]] != top:
                results["join_right"] = False
            for z in h.elements():
                if imp[imp[x][imp[y][z]]][imp[imp[x][y]][imp[x][z]]] != top:
                    results["distribution_of_implication"] = False
                if imp[imp[x][z]][imp[imp[y][z]][imp[join[x][y]][z]]] != top:
                    results["case_split"] = False
    return results



def law_report_by_loops(h):
    """law_report as loops over all pairs."""
    neg, meet, join = h.neg, h.meet, h.join
    top = h.top
    regulars = [x for x in h.elements() if neg(neg(x)) == x]
    witness = {}

    regular_dm = True
    weak_dm = True
    triple = True
    for x in h.elements():
        if neg(neg(neg(x))) != neg(x):
            triple = False
        for y in h.elements():
            if neg(join[x][y]) != meet[neg(x)][neg(y)]:
                regular_dm = False
            if neg(meet[x][y]) != neg(neg(join[neg(x)][neg(y)])):
                weak_dm = False

    def strong_dual(xs, ys):
        return all(neg(meet[x][y]) == join[neg(x)][neg(y)] for x in xs for y in ys)

    cond = {}
    cond["both_de_morgan"] = regular_dm and strong_dual(h.elements(), h.elements())
    cond["strong_dual_all"] = strong_dual(h.elements(), h.elements())
    cond["strong_dual_regular"] = strong_dual(regulars, regulars)
    cond["double_neg_join_all"] = all(
        neg(neg(join[x][y])) == join[neg(neg(x))][neg(neg(y))]
        for x in h.elements() for y in h.elements()
    )
    cond["join_of_regular_regular"] = all(
        neg(neg(join[x][y])) == join[x][y] for x in regulars for y in regulars
    )
    cond["regular_join_formula"] = all(
        neg(meet[neg(x)][neg(y)]) == join[x][y] for x in regulars for y in regulars
    )
    cond["weak_excluded_middle"] = all(
        join[neg(x)][neg(neg(x))] == top for x in h.elements()
    )
    if not cond["weak_excluded_middle"]:
        for x in h.elements():
            if join[neg(x)][neg(neg(x))] != top:
                witness["weak_excluded_middle"] = {
                    "x": h.labels[x],
                    "value": h.labels[join[neg(x)][neg(neg(x))]],
                }
                break

    fixed = [h.labels[x] for x in h.elements() if neg(x) == x]
    return LawReport(
        axioms=axioms_by_loops(h),
        regular_de_morgan=regular_dm,
        weak_de_morgan=weak_dm,
        seven_conditions=cond,
        seven_agree=len(set(cond.values())) == 1,
        triple_negation=triple,
        negation_fixed_points=fixed,
        witness=witness,
    )


def lattice_outcome_by_search(meet, join):
    """What heyting_from_lattice answered when it searched every (a, b) with
    implication_by_search: ("ok", impl), ("NotHeyting", witness) or
    ("InvalidLattice", message)."""
    n = len(meet)
    bottom = top = None
    for x in range(n):
        if all(meet[x][y] == x for y in range(n)):
            bottom = x
        if all(join[x][y] == x for y in range(n)):
            top = x
    if bottom is None or top is None:
        return ("InvalidLattice", "lattice is not bounded")

    def leq(a, b):
        return meet[a][b] == a

    impl = [[implication_by_search(meet, leq, n, a, b) for b in range(n)]
            for a in range(n)]
    for a, b in itertools.product(range(n), repeat=2):
        if impl[a][b] is None:
            return ("NotHeyting", (a, b))
    try:
        check_laws_by_loops(meet, join, impl, bottom, top)
    except InvalidLattice as exc:
        return ("InvalidLattice", str(exc))
    return ("ok", impl)


def lattice_outcome(meet, join):
    try:
        return ("ok", heyting_from_lattice(meet, join).impl)
    except NotHeyting as exc:
        return ("NotHeyting", exc.witness)
    except InvalidLattice as exc:
        return ("InvalidLattice", str(exc))


def failure(check):
    """The InvalidLattice message a check raises, or None."""
    try:
        check()
    except InvalidLattice as exc:
        return str(exc)
    return None


def antichain(n):
    return FinitePoset.from_pairs([f"p{i}" for i in range(n)], [])


def workload_posets():
    """Every poset shape the benchmark's finite-structures workload draws."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return {shape: FinitePoset.from_pairs([f"p{i}" for i in range(n)],
                                          [(f"p{a}", f"p{b}") for a, b in covers])
            for shape, (n, covers) in module.POSET_SHAPES.items()}


TOPOLOGIES_3 = list(enumerate_topologies(3))


def seeded_posets(count=60, seed=13):
    """Up-set algebras of random posets on 1-6 points, each pair i < j
    ordered with a density drawn per poset."""
    rng = random.Random(seed)
    algebras = []
    for _ in range(count):
        n = rng.randint(1, 6)
        density = rng.choice((0.2, 0.4, 0.6))
        names = [f"p{i}" for i in range(n)]
        pairs = [(names[a], names[b]) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < density]
        algebras.append(heyting_from_poset_upsets(FinitePoset.from_pairs(names, pairs)))
    return algebras


@st.composite
def valid_algebras(draw):
    """Chains of 1-12, up-sets of posets of up to 6 points, topologies on 3."""
    kind = draw(st.sampled_from(["chain", "poset", "topology"]))
    if kind == "chain":
        return heyting_from_chain(draw(st.integers(1, 12)))
    if kind == "topology":
        return heyting_from_topology(draw(st.sampled_from(TOPOLOGIES_3)))
    n = draw(st.integers(1, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] < p[1]), max_size=6))
    return heyting_from_poset_upsets(FinitePoset.from_pairs(
        [f"p{i}" for i in range(n)], [(f"p{a}", f"p{b}") for a, b in pairs]))


@st.composite
def mutated_tables(draw):
    """A valid algebra's tables with one entry of meet, join or impl changed
    (meet and join optionally at [j][i] too, so that commutativity holds and
    the later laws are reached)."""
    h = draw(valid_algebras())
    tables = {name: [list(row) for row in getattr(h, name)]
              for name in ("meet", "join", "impl")}
    name = draw(st.sampled_from(sorted(tables)))
    i, j, value = (draw(st.integers(0, h.n - 1)) for _ in range(3))
    tables[name][i][j] = value
    if name != "impl" and draw(st.booleans()):
        tables[name][j][i] = value
    return tables["meet"], tables["join"], tables["impl"], h.bottom, h.top


class TestImplication:
    def test_three_chain_excluded_middle_fails(self):
        c3 = heyting_from_chain(3)
        half = 1
        assert c3.neg(half) == 0
        assert c3.join[half][c3.neg(half)] == half

    def test_self_implication_is_top(self):
        for h in (heyting_from_chain(5),
                  heyting_from_topology(discrete_topology("ab"))):
            for a in h.elements():
                assert h.impl[a][a] == h.top

    def test_brute_force_example(self):
        t = FiniteTopology.from_subsets(["x", "y"], [[], ["x"], ["x", "y"]])
        h = heyting_from_topology(t)
        full = h.labels.index("{x,y}")
        x = h.labels.index("{x}")
        assert h.impl[full][x] == x

    def test_meet_with_implication(self):
        # a /\ (a -> b) = a /\ b
        h = heyting_from_chain(6)
        for a in h.elements():
            for b in h.elements():
                assert h.meet[a][h.impl[a][b]] == h.meet[a][b]


class TestTopologyConstruction:
    def test_sierpinski_is_three_chain(self):
        h = heyting_from_topology(sierpinski_topology())
        assert h.n == 3
        assert algebras_isomorphic(h, heyting_from_chain(3))

    def test_discrete_two_points_is_boolean_four(self):
        h = heyting_from_topology(discrete_topology("ab"))
        assert h.n == 4
        assert classify_elements(h).is_boolean

    def test_indiscrete_is_two_chain(self):
        h = heyting_from_topology(indiscrete_topology("abc"))
        assert h.n == 2

    def test_invalid_topology_rejected(self):
        with pytest.raises(InvalidTopology):
            FiniteTopology.from_subsets(["a", "b"], [[], ["a"], ["b"], ["a", "b"]][:-1])
        with pytest.raises(InvalidTopology):
            FiniteTopology(("a", "b", "c"), (0, 0b001, 0b010, 0b111))

    def test_repeated_point_names_rejected(self):
        # they were refused as "opens must contain the empty and full sets"
        with pytest.raises(InvalidTopology, match="point names must be distinct"):
            FiniteTopology.from_json_dict({"points": ["a", "a"], "opens": [[], ["a"]]})
        with pytest.raises(InvalidTopology, match="point names must be distinct"):
            FiniteTopology(("a", "a"), (0, 0b11))

    def test_interior_vs_brute_force_on_all_small_topologies(self):
        # construction-formula implication == greatest-element implication,
        # exhaustively over every topology on up to 4 points
        count = 0
        for n in range(1, 5):
            for topology in enumerate_topologies(n):
                h = heyting_from_topology(topology)

                def leq(a, b):
                    return h.meet[a][b] == a

                for a in h.elements():
                    for b in h.elements():
                        brute = implication_by_search(h.meet, leq, h.n, a, b)
                        assert brute == h.impl[a][b]
                count += 1
        assert count == 1 + 4 + 29 + 355

    def test_json_roundtrip(self):
        t = sierpinski_topology()
        assert FiniteTopology.from_json_dict(t.to_json_dict()) == t

    @pytest.mark.parametrize("topology", TOPOLOGIES_3)
    def test_impl_is_the_popcount_interior(self, topology):
        h = heyting_from_topology(topology)

        def element(mask):
            return h.labels.index("{" + ",".join(topology.mask_name(mask)) + "}")

        full = topology.full_mask
        for a in topology.opens:
            for b in topology.opens:
                expected = popcount_interior(topology, (full & ~a) | b)
                assert topology.interior((full & ~a) | b) == expected
                assert h.impl[element(a)][element(b)] == element(expected)


class TestChainAndPoset:
    def test_chain_implication_shape(self):
        h = heyting_from_chain(5)
        for a in h.elements():
            for b in h.elements():
                assert h.impl[a][b] == (b if a > b else h.top)

    def test_two_chain_is_boolean(self):
        assert classify_elements(heyting_from_chain(2)).is_boolean
        assert not classify_elements(heyting_from_chain(3)).is_boolean

    def test_antichain_upsets_boolean(self):
        p = FinitePoset.from_pairs(["a", "b"], [])
        h = heyting_from_poset_upsets(p)
        assert h.n == 4 and classify_elements(h).is_boolean

    def test_two_chain_poset_gives_three_chain(self):
        p = FinitePoset.from_pairs(["a", "b"], [("a", "b")])
        assert heyting_from_poset_upsets(p).n == 3
        assert heyting_from_poset_upsets(p, "down").n == 3

    def test_long_chain_closed_from_reversed_covers(self):
        # each cover only reaches the next point, and the covers come top
        # first, so every comparable pair beyond a cover needs the closure
        names = [f"p{i:02d}" for i in range(16)]
        covers = [(names[i], names[i + 1]) for i in reversed(range(15))]
        p = FinitePoset.from_pairs(names, covers)
        assert p.le == tuple(tuple(i <= j for j in range(16)) for i in range(16))
        assert heyting_from_poset_upsets(p).n == 17

    def test_singleton(self):
        p = FinitePoset.from_pairs(["a"], [])
        assert heyting_from_poset_upsets(p).n == 2

    def test_preorder_rejected(self):
        with pytest.raises(InvalidPoset):
            FinitePoset(("a", "b"),
                        ((True, True), (True, True)))  # a <= b <= a, a != b

    def test_repeated_element_names_rejected(self):
        # they built a four-element algebra labelled {}, {a}, {a}, {a,a}
        with pytest.raises(InvalidPoset, match="element names must be distinct"):
            FinitePoset.from_json_dict({"elements": ["a", "a"], "le": []})
        with pytest.raises(InvalidPoset, match="element names must be distinct"):
            FinitePoset(("a", "b", "a"), ((True,) * 3,) * 3)


class TestLatticeConstruction:
    def test_pentagon_rejected_with_witness(self):
        with pytest.raises(NotHeyting) as exc:
            heyting_from_lattice(*pentagon_lattice())
        assert exc.value.witness is not None

    def test_diamond_rejected(self):
        with pytest.raises(NotHeyting):
            heyting_from_lattice(*diamond_lattice())

    @pytest.mark.parametrize("n", range(1, 11))
    def test_chains_accepted(self, n):
        c = heyting_from_chain(n)
        rebuilt = heyting_from_lattice(c.meet, c.join)
        assert rebuilt.impl == c.impl

    def test_accepted_lattices_are_distributive(self):
        # acceptance already verifies distributivity; spot-check a product
        t = discrete_topology("abc")
        h = heyting_from_topology(t)
        assert h.n == 8  # all subsets; Boolean cube


class TestClassification:
    def test_three_chain(self):
        cls = classify_elements(heyting_from_chain(3))
        assert cls.regular == frozenset({0, 2})
        assert cls.complemented == frozenset({0, 2})
        assert not cls.is_boolean
        assert cls.h_reg.n == 2

    def test_complemented_subset_of_regular(self):
        for topology in enumerate_topologies(3):
            cls = classify_elements(heyting_from_topology(topology))
            assert cls.complemented <= cls.regular
            assert cls.is_boolean == (len(cls.regular) ==
                                      len(list(cls.h_reg.elements())) ==
                                      len(cls.complemented) ==
                                      heyting_from_topology(topology).n)

    def test_boolean_iff_all_regular_iff_all_complemented(self):
        for topology in enumerate_topologies(3):
            h = heyting_from_topology(topology)
            cls = classify_elements(h)
            assert cls.is_boolean == (len(cls.regular) == h.n)
            assert cls.is_boolean == (len(cls.complemented) == h.n)

    def test_h_reg_is_boolean(self):
        for n in (3, 4, 5):
            cls = classify_elements(heyting_from_chain(n))
            assert classify_elements(cls.h_reg).is_boolean

    def test_single_element_algebra(self):
        cls = classify_elements(heyting_from_chain(1))
        assert cls.is_boolean

    def test_bounds_in_both(self):
        h = heyting_from_chain(4)
        cls = classify_elements(h)
        assert {h.bottom, h.top} <= cls.regular
        assert {h.bottom, h.top} <= cls.complemented


class TestLawReport:
    def test_boolean_everything_passes(self):
        rep = law_report(heyting_from_topology(discrete_topology("ab")))
        assert rep.all_mandatory_pass()
        assert rep.seven_agree and rep.seven_block_passes()

    def test_three_chain_seven_block_passes(self):
        rep = law_report(heyting_from_chain(3))
        assert rep.all_mandatory_pass()
        assert rep.seven_agree and rep.seven_block_passes()

    def test_two_atom_topology_fails_block_with_witness(self):
        t = FiniteTopology.from_subsets(
            ["1", "2", "3"], [[], ["1"], ["2"], ["1", "2"], ["1", "2", "3"]]
        )
        rep = law_report(heyting_from_topology(t))
        assert rep.all_mandatory_pass()
        assert rep.seven_agree and not rep.seven_block_passes()
        assert rep.witness["weak_excluded_middle"] == {"x": "{1}", "value": "{1,2}"}

    def test_mandatory_laws_hold_everywhere(self):
        for topology in enumerate_topologies(3):
            rep = law_report(heyting_from_topology(topology))
            assert rep.all_mandatory_pass()
            assert rep.seven_agree

    def test_reads_the_tables_construction_built(self, monkeypatch):
        # law_report converts no table again: it reads the algebra's
        # read-only int32 arrays, equal to its lists
        h = heyting_from_poset_upsets(antichain(4))
        for array, table in zip(h.arrays, (h.meet, h.join, h.impl), strict=True):
            assert array.dtype == np.int32 and not array.flags.writeable
            assert array.tolist() == table
        expected = json.dumps(law_report(h).to_json_dict())
        h.meet, h.join, h.impl = None, None, None
        assert json.dumps(law_report(h).to_json_dict()) == expected

    def test_negation_fixed_point_diagnostic(self):
        assert law_report(heyting_from_chain(3)).negation_fixed_points == []
        assert law_report(heyting_from_chain(1)).negation_fixed_points == ["0"]


class TestFrameLaw:
    def test_meet_distributes_over_arbitrary_joins(self):
        # x /\ (join of Y) = join of {x /\ y}, all subsets, |H| <= 8
        for topology in enumerate_topologies(3):
            h = heyting_from_topology(topology)
            if h.n > 8:
                continue
            elems = list(h.elements())
            for x in elems:
                for size in range(len(elems) + 1):
                    for subset in itertools.combinations(elems, size):
                        join_y = h.bottom
                        for y in subset:
                            join_y = h.join[join_y][y]
                        rhs = h.bottom
                        for y in subset:
                            rhs = h.join[rhs][h.meet[x][y]]
                        assert h.meet[x][join_y] == rhs


class TestNegationOperators:
    def test_antitone_and_closure(self):
        for n in (3, 4, 5):
            h = heyting_from_chain(n)
            for x in h.elements():
                assert h.neg(h.neg(h.neg(x))) == h.neg(x)
                assert h.leq(x, h.neg(h.neg(x)))
                for y in h.elements():
                    if h.leq(x, y):
                        assert h.leq(h.neg(y), h.neg(x))


class TestFilters:
    def test_empty_generates_top(self):
        h = heyting_from_chain(3)
        assert filter_generate(h, []).members == frozenset({h.top})

    def test_upward_closure(self):
        h = heyting_from_chain(3)
        assert filter_generate(h, [1]).members == frozenset({1, 2})

    def test_zero_generates_everything(self):
        h = heyting_from_chain(4)
        assert filter_generate(h, [h.bottom]).members == frozenset(h.elements())

    def test_intersection_is_filter(self):
        h = heyting_from_topology(discrete_topology("ab"))
        f1 = filter_generate(h, [1])
        f2 = filter_generate(h, [2])
        inter = Filter(h, f1.members & f2.members)
        assert h.top in inter.members  # and the constructor validated it

    def test_invalid_filter_rejected(self):
        h = heyting_from_chain(3)
        with pytest.raises(InvalidFilter):
            Filter(h, frozenset({0, 2}))  # not upward closed from 0? 0<=1 missing
        with pytest.raises(InvalidFilter):
            Filter(h, frozenset({1}))  # missing top

    def test_generated_is_smallest(self):
        h = heyting_from_topology(discrete_topology("ab"))
        f = filter_generate(h, [h.top])
        assert f.members == frozenset({h.top})

    @pytest.mark.parametrize("members, message", [
        ({1}, "filter must contain the top element"),
        ({1, 2, 3}, "filter not closed under meet"),  # {a} /\ {b} = {} missing
        ({0, 3}, "filter not upward closed"),  # {a} and {b} lie above {}
        ({3, 4}, "filter members must lie in 0..3"),
        ({-1, 3}, "filter members must lie in 0..3"),
    ])
    def test_each_filter_check_rejects(self, members, message):
        # the four opens of the discrete topology on a, b: {}, {a}, {b}, {a,b}
        h = heyting_from_topology(discrete_topology("ab"))
        with pytest.raises(InvalidFilter, match=message):
            Filter(h, frozenset(members))

    def test_filter_records_its_least_element(self):
        h = heyting_from_chain(5)
        assert filter_generate(h, [3, 2, 4]).least == 2
        assert Filter(h, frozenset({4})).least == h.top


class TestQuotients:
    def test_quotient_by_top_filter_is_identity(self):
        h = heyting_from_chain(3)
        q, proj = quotient_by_filter(h, filter_generate(h, []))
        assert q.n == h.n and algebras_isomorphic(q, h)

    def test_quotient_by_everything_is_point(self):
        h = heyting_from_chain(3)
        q, _ = quotient_by_filter(h, filter_generate(h, [h.bottom]))
        assert q.n == 1

    def test_three_chain_mod_half(self):
        h = heyting_from_chain(3)
        f = filter_generate(h, [1])
        q, proj = quotient_by_filter(h, f)
        assert q.n == 2
        assert proj[1] == proj[2] == q.top
        assert proj[0] == q.bottom

    def test_projection_is_morphism_with_kernel_the_filter(self):
        h = heyting_from_chain(4)
        f = filter_generate(h, [2])
        q, proj = quotient_by_filter(h, f)
        rep = verify_morphism(h, q, proj)
        assert rep.is_morphism()
        assert kernel(h, q, proj).members == f.members

    def test_universal_property_on_collapse(self):
        # factoring the 3-chain collapse through the quotient by its kernel
        h = heyting_from_chain(3)
        c2 = heyting_from_chain(2)
        f = [0, 1, 1]
        ker = kernel(h, c2, f)
        q, proj = quotient_by_filter(h, Filter(h, ker.members))
        # unique factoring map: class of x -> f(x)
        factor = {}
        for x in h.elements():
            if proj[x] in factor:
                assert factor[proj[x]] == f[x]
            factor[proj[x]] = f[x]
        fprime = [factor[c] for c in range(q.n)]
        assert verify_morphism(q, c2, fprime).is_morphism()
        assert algebras_isomorphic(q, c2)


class TestClosedForms:
    """Filters as principal up-sets, quotients keyed by x /\\ m and
    complements as negations, against the searches they replaced: every
    generator set of at most three elements, and every filter these give."""

    ALGEBRAS = {
        "chain": lambda: [heyting_from_chain(n) for n in range(1, 13)],
        "topology": lambda: [heyting_from_topology(t) for t in (
            sierpinski_topology(), discrete_topology("ab"), discrete_topology("abc"),
            indiscrete_topology("abc"))],
        "poset": seeded_posets,
    }

    @pytest.mark.parametrize("kind", sorted(ALGEBRAS))
    def test_filters_quotients_and_complements_match_the_searches(self, kind):
        generator_sets = filters = elements = 0
        for h in self.ALGEBRAS[kind]():
            elements += h.n
            seen = {}
            for size in range(4):
                for generators in itertools.combinations(h.elements(), size):
                    f = filter_generate(h, generators)
                    assert f == filter_by_meet_closure(h, generators)
                    seen[f.members] = f
                    generator_sets += 1
            for f in seen.values():
                quotient, proj = quotient_by_filter(h, f)
                expected, expected_proj = quotient_by_relation_search(h, f)
                assert proj == expected_proj
                assert quotient.to_json_dict() == expected.to_json_dict()
                filters += 1
            assert classify_elements(h).complemented == complemented_by_search(h)
        # every filter of a finite lattice is principal: one per element
        assert filters == elements
        assert generator_sets > filters

    def test_no_constructor_skips_the_law_check(self):
        with pytest.raises(TypeError):
            HeytingAlgebra([[0]], [[0]], [[0]], 0, 0, verify=False)


class TestMorphisms:
    def test_identity_map(self):
        h = heyting_from_chain(4)
        rep = verify_morphism(h, h, list(h.elements()))
        assert rep.is_morphism()
        assert kernel(h, h, list(h.elements())).members == frozenset({h.top})

    def test_collapse_passes(self):
        h, c2 = heyting_from_chain(3), heyting_from_chain(2)
        rep = verify_morphism(h, c2, [0, 1, 1])
        assert rep.is_morphism()
        assert kernel(h, c2, [0, 1, 1]).members == frozenset({1, 2})

    def test_bad_collapse_fails_implication_clause(self):
        h, c2 = heyting_from_chain(3), heyting_from_chain(2)
        rep = verify_morphism(h, c2, [0, 0, 1])
        assert not rep.is_morphism()
        assert not rep.clauses["implication"]
        assert "implication" in rep.failures


class TestWholeTableChecks:
    """The numpy forms of the checks against the loops they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(mutated_tables())
    def test_verify_fails_like_the_loops(self, tables):
        expected = failure(lambda: check_laws_by_loops(*tables))
        assert failure(lambda: check_laws_by_slabs(*tables)) == expected
        assert failure(lambda: HeytingAlgebra(*tables)) == expected

    # the budget set per example, so that each block holds exactly
    # per_block first arguments (the default makes one block up to 25
    # elements); the fixture restores it after the last example
    @pytest.mark.parametrize("per_block", [1, 2, 3])
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tables=mutated_tables())
    def test_verify_fails_like_the_loops_across_blocks(self, tables, per_block,
                                                      monkeypatch):
        monkeypatch.setattr(heyting, "_BUDGET", per_block * len(tables[0]) ** 2)
        expected = failure(lambda: check_laws_by_loops(*tables))
        assert failure(lambda: check_laws_by_slabs(*tables)) == expected

    # commutative, idempotent, bounded and absorptive tables, each failing
    # first at a different triple law (found by a random search)
    TRIPLE_FAILURES = {
        "meet not associative": (
            [[0, 0, 0, 0, 0], [0, 1, 1, 1, 1], [0, 1, 2, 0, 2], [0, 1, 0, 3, 3], [0, 1, 2, 3, 4]],
            [[0, 1, 2, 3, 4], [1, 1, 2, 3, 4], [2, 2, 2, 4, 4], [3, 3, 4, 3, 4], [4, 4, 4, 4, 4]],
            [[4, 4, 4, 4, 4], [0, 4, 4, 4, 4], [3, 3, 4, 3, 4], [2, 2, 2, 4, 4], [0, 1, 2, 3, 4]]),
        "join not associative": (
            [[0, 0, 0, 0, 0], [0, 1, 2, 1, 1], [0, 2, 2, 0, 2], [0, 1, 0, 3, 3], [0, 1, 2, 3, 4]],
            [[0, 1, 2, 3, 4], [1, 1, 1, 3, 4], [2, 1, 2, 4, 4], [3, 3, 4, 3, 4], [4, 4, 4, 4, 4]],
            [[4, 4, 4, 4, 4], [0, 4, 2, 4, 4], [3, 4, 4, 3, 4], [2, 1, 2, 4, 4], [0, 1, 2, 3, 4]]),
        "meet does not distribute over join": (
            [[0, 0, 0, 0, 0], [0, 1, 0, 3, 1], [0, 0, 2, 0, 2], [0, 3, 0, 3, 3], [0, 1, 2, 3, 4]],
            [[0, 1, 2, 3, 4], [1, 1, 4, 1, 4], [2, 4, 2, 4, 4], [3, 1, 4, 3, 4], [4, 4, 4, 4, 4]],
            [[4, 4, 4, 4, 4], [2, 4, 2, 0, 4], [1, 1, 4, 1, 4], [2, 4, 2, 4, 4], [0, 1, 2, 3, 4]]),
        "join does not distribute over meet": (
            [[0, 0, 0, 0, 0], [0, 1, 0, 1, 1], [0, 0, 2, 0, 2], [0, 1, 0, 3, 3], [0, 1, 2, 3, 4]],
            [[0, 1, 2, 3, 4], [1, 1, 4, 3, 4], [2, 4, 2, 4, 4], [3, 3, 4, 3, 4], [4, 4, 4, 4, 4]],
            [[4, 4, 4, 4, 4], [2, 4, 2, 4, 4], [3, 3, 4, 3, 4], [2, 0, 2, 4, 4], [0, 1, 2, 3, 4]]),
    }

    @pytest.mark.parametrize("message", sorted(TRIPLE_FAILURES))
    def test_each_triple_law_fails_like_the_loops(self, message):
        tables = (*self.TRIPLE_FAILURES[message], 0, 4)
        assert failure(lambda: check_laws_by_loops(*tables)) == message
        assert failure(lambda: check_laws_by_slabs(*tables)) == message
        assert failure(lambda: HeytingAlgebra(*tables)) == message

    @settings(max_examples=60, deadline=None)
    @given(mutated_tables())
    def test_law_report_on_mutated_tables_matches_the_loops(self, tables):
        # the tables need not be an algebra: every clause can fail here
        h = UncheckedTables(*tables)
        assert (json.dumps(law_report(h).to_json_dict())
                == json.dumps(law_report_by_loops(h).to_json_dict()))

    @pytest.mark.parametrize("per_block", [1, 2, 3])
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tables=mutated_tables())
    def test_law_report_on_mutated_tables_matches_the_loops_across_blocks(
            self, tables, per_block, monkeypatch):
        h = UncheckedTables(*tables)
        monkeypatch.setattr(heyting, "_BUDGET", per_block * h.n ** 2)
        assert (json.dumps(law_report(h).to_json_dict())
                == json.dumps(law_report_by_loops(h).to_json_dict()))

    @pytest.mark.parametrize("per_block", [1, 2, 3])
    def test_topology_implication_across_blocks(self, per_block, monkeypatch):
        posets = [antichain(5), *workload_posets().values()]
        expected = [heyting_from_poset_upsets(p).impl for p in posets]
        for poset, impl in zip(posets, expected):
            n = len(impl)
            monkeypatch.setattr(heyting, "_BUDGET", per_block * n * n)
            assert heyting_from_poset_upsets(poset).impl == impl

    @pytest.mark.parametrize("name", ["chain", "boolean", "poset"])
    def test_law_report_matches_the_loops(self, name):
        algebras = {
            "chain": [heyting_from_chain(n) for n in (*range(1, 13), 24, 32)],
            "boolean": [heyting_from_topology(discrete_topology("abcde"[:k]))
                        for k in range(6)],
            "poset": [heyting_from_poset_upsets(p) for p in workload_posets().values()],
        }[name]
        for h in algebras:
            assert (json.dumps(law_report(h).to_json_dict())
                    == json.dumps(law_report_by_loops(h).to_json_dict()))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
        min_size=2 * n, max_size=2 * n)), st.booleans())
    def test_lattice_search_on_arbitrary_tables(self, rows, bounded):
        n = len(rows) // 2
        meet, join = rows[:n], rows[n:]
        if bounded:  # 0 and n - 1 act as bottom and top, so the search runs
            for x in range(n):
                meet[0][x] = meet[x][0] = 0
                join[n - 1][x] = join[x][n - 1] = n - 1
                meet[n - 1][x], join[0][x] = x, x
        assert lattice_outcome(meet, join) == lattice_outcome_by_search(meet, join)

    def test_lattice_search_on_known_lattices(self):
        cases = [pentagon_lattice(), diamond_lattice()]
        cases += [(h.meet, h.join) for h in (heyting_from_chain(9),
                                              *(heyting_from_topology(t) for t in TOPOLOGIES_3))]
        cases += [(h.meet, h.join) for h in map(heyting_from_poset_upsets,
                                                 workload_posets().values())]
        for meet, join in cases:
            assert lattice_outcome(meet, join) == lattice_outcome_by_search(meet, join)

    def test_256_elements_within_a_pinned_bound(self):
        # the 8-point antichain's up-sets: 256 elements, the size cap
        start = time.perf_counter()
        h = heyting_from_poset_upsets(antichain(8))
        cls = classify_elements(h)
        report = law_report(h)
        elapsed = time.perf_counter() - start
        assert h.n == MAX_LATTICE and cls.is_boolean
        assert report.all_mandatory_pass() and report.seven_block_passes()
        assert elapsed < 10.0

    @pytest.mark.parametrize("make", [lambda: heyting_from_chain(64),
                                      lambda: heyting_from_poset_upsets(antichain(8))],
                             ids=["chain64", "antichain8"])
    def test_checks_within_the_block_budget(self, make):
        # no array of the checks holds more than max(_BUDGET, n^2) entries:
        # the int32 and intp copies of the tables take at most 28 bytes per
        # such entry, and a few block arrays at most 4 bytes each, while
        # one block of all 64 first arguments peaked at 3.3 MB, and one
        # n^3 array at 256 elements would take 16 MiB even as booleans
        h = make()
        entries = max(heyting._BUDGET, h.n ** 2)
        tables = (h.meet, h.join, h.impl, h.bottom, h.top)
        for check in (lambda: check_laws_by_slabs(*tables), lambda: law_report(h)):
            tracemalloc.start()
            try:
                check()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * entries


class TestInputShape:
    """Malformed tables are rejected before any law is checked."""

    TWO = dict(meet=[[0, 0], [0, 1]], join=[[0, 1], [1, 1]], impl=[[1, 1], [0, 1]],
               bottom=0, top=1)

    @pytest.mark.parametrize("change, message", [
        ({"meet": [[0, 0], [0]]}, "meet table must be 2 x 2"),
        ({"join": [[0, 1]]}, "join table must be 2 x 2"),
        ({"impl": "11"}, "impl table must be 2 x 2"),
        ({"meet": 5}, "meet table must be a list of rows"),
        ({"meet": [[0, 0], [0, True]]}, "meet entries must be integers"),
        ({"join": [[0, 1.0], [1, 1]]}, "join entries must be integers"),
        ({"impl": [[1, 1], [-1, 1]]}, "impl entries must lie in 0..1"),
        ({"impl": [[1, 2], [0, 1]]}, "impl entries must lie in 0..1"),
        ({"top": 7}, "top must be an index in 0..1"),
        ({"bottom": -1}, "bottom must be an index in 0..1"),
        ({"bottom": False}, "bottom must be an index in 0..1"),
        ({"meet": [], "join": [], "impl": []}, "algebra needs at least one element"),
        ({"labels": 5}, "labels must be a list of 2 names"),
        ({"labels": ["x"]}, "labels must be a list of 2 names"),
    ])
    def test_rejected(self, change, message):
        with pytest.raises(InvalidLattice, match=message):
            HeytingAlgebra(**{**self.TWO, **change})

    def test_valid_two_element_algebra(self):
        assert HeytingAlgebra(**self.TWO).n == 2

    def test_oversized_tables_rejected(self):
        n = MAX_LATTICE + 1
        table = [[0] * n for _ in range(n)]
        with pytest.raises(InvalidLattice, match="size capped"):
            HeytingAlgebra(table, table, table, 0, 0)
        with pytest.raises(InvalidLattice, match="size capped"):
            heyting_from_lattice(table, table)

    @pytest.mark.parametrize("meet, join, message", [
        ([[0, 0], [0]], [[0, 1], [1, 1]], "meet table must be 2 x 2"),
        ([[0, 0], [0, 1]], [[0, 1], [1, True]], "join entries must be integers"),
        ([[0, 0], [0, 2]], [[0, 1], [1, 1]], "meet entries must lie in 0..1"),
    ])
    def test_lattice_tables_rejected(self, meet, join, message):
        with pytest.raises(InvalidLattice, match=message):
            heyting_from_lattice(meet, join)

    @pytest.mark.parametrize("points", [9, 14])
    def test_size_cap_before_the_upsets_are_built(self, points):
        start = time.perf_counter()
        with pytest.raises(InvalidLattice, match="size capped"):
            heyting_from_poset_upsets(antichain(points))
        assert time.perf_counter() - start < 1.0

    def test_size_cap_before_the_topology_implication(self):
        with pytest.raises(InvalidLattice, match="size capped"):
            heyting_from_topology(discrete_topology("abcdefghi"))


class TestBooleanRing:
    def test_singleton_is_two_element_field(self):
        rep = boolean_ring_roundtrip(1)
        assert rep.size == 2 and rep.all_passed()

    def test_every_element_self_cancels(self):
        rep = boolean_ring_roundtrip(4)
        assert rep.characteristic_two and rep.idempotent

    def test_three_points_exhaustive(self):
        rep = boolean_ring_roundtrip(3)
        assert rep.exhaustive and rep.all_passed()

    def test_large_ground_set_sampled(self):
        rep = boolean_ring_roundtrip(10)
        assert not rep.exhaustive and rep.all_passed()

    @pytest.mark.parametrize("n_points", range(7))
    def test_passes_including_injectivity(self, n_points):
        rep = boolean_ring_roundtrip(n_points)
        assert rep.all_passed() and rep.char_map_isomorphism
        assert rep.exhaustive == (n_points <= 5)

    def test_cap(self):
        from hyperlab.heyting import SetTooLarge

        with pytest.raises(SetTooLarge):
            boolean_ring_roundtrip(17)
