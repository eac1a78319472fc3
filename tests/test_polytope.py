import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gpauction.caps import Caps, CapExceededError
from gpauction.demand import seller_demand
from gpauction.model import (
    GPoint,
    PriceVector,
    ValueGraph,
    aggregate,
    bundle_mask,
    char_vector,
    project,
)
from gpauction.polytope import (
    Face,
    bundle_table,
    enumerate_aggregates,
    enumerate_decompositions,
    minkowski_contains,
    nested_chain_point,
    vertex_sum_contains,
    vertices_P,
)
from gpauction.instances import corpus_instance

from .strategies import graphs, thinned

K2 = ValueGraph.complete(2)
K3 = ValueGraph.complete(3)
K4 = ValueGraph.complete(4)
IDP_POINT = GPoint(K4, (2, 2, 2, 2, 1, 1, 1, 1, 1, 1))


def brute_force_decompositions(a: GPoint, m: int) -> set:
    """Independent oracle: scan all multisets of m subsets directly."""
    g = a.graph
    masks = list(range(1 << g.n))
    found = set()
    for combo in itertools.combinations_with_replacement(masks, m):
        total = [0] * g.d
        for mask in combo:
            S = [i for i in range(g.n) if mask >> i & 1]
            for k, c in enumerate(char_vector(S, g).coords):
                total[k] += c
        if tuple(total) == a.coords:
            found.add(
                tuple(
                    sorted(
                        (
                            tuple(sorted(i for i in range(g.n) if mask >> i & 1))
                            for mask in combo
                        )
                    )
                )
            )
    return found


def as_multiset(parts) -> tuple:
    return tuple(sorted(tuple(sorted(S)) for S in parts))


def split_bundles(a: GPoint, m: int) -> list:
    """enumerate_decompositions(a, m) with each split's bitmasks read as
    bundles, after checking that every item carries a's coordinates."""
    bundles = bundle_table(a.graph)
    items = list(enumerate_decompositions(a, m))
    assert all(coords == a.coords for coords, _ in items)
    return [tuple(bundles[s] for s in masks) for _, masks in items]


class TestVerticesP:
    def test_k2(self):
        assert [v.coords for v in vertices_P(K2)] == [
            (0, 0, 0),
            (1, 0, 0),
            (0, 1, 0),
            (1, 1, 1),
        ]

    def test_single_vertex_graph(self):
        g = ValueGraph.complete(1)
        assert [v.coords for v in vertices_P(g)] == [(0,), (1,)]

    def test_k3_count_and_full_clique(self):
        verts = vertices_P(K3)
        assert len(verts) == 8
        full = [v for v in verts if sum(v.coords[3:]) == 3]
        assert len(full) == 1 and full[0].coords == (1, 1, 1, 1, 1, 1)

    def test_cap(self):
        """The n cap of the caps, checked before the 2^n table is built."""
        K7 = ValueGraph.complete(7)
        with pytest.raises(CapExceededError, match="max_n=6"):
            vertices_P(K7)
        assert len(vertices_P(K7, Caps(max_n=7))) == 1 << 7

    @given(graphs())
    def test_each_vertex_is_characteristic_over_its_mask(self, g):
        for mask, q in enumerate(vertices_P(g)):
            assert q.is_characteristic()
            assert project(q) == tuple(mask >> i & 1 for i in range(g.n))


class TestNestedChain:
    def test_two_one_zero(self):
        point, parts = nested_chain_point((2, 1, 0), 3, K3)
        assert point.coords == (2, 1, 0, 1, 0, 0)
        assert parts == (frozenset({0, 1}), frozenset({0}), frozenset())
        assert aggregate(K3, parts) == point

    def test_zero_bundle(self):
        point, parts = nested_chain_point((0, 0, 0), 3, K3)
        assert point == GPoint.zero(K3)
        assert parts == (frozenset(),) * 3

    def test_all_ones(self):
        point, parts = nested_chain_point((1, 1, 1), 2, K3)
        assert point.coords == (1, 1, 1, 1, 1, 1)
        assert parts == (frozenset({0, 1, 2}), frozenset())

    def test_entry_above_m(self):
        with pytest.raises(ValueError):
            nested_chain_point((3, 0, 0), 2, K3)

    @pytest.mark.parametrize(
        "bundle, graph, message",
        [
            ((1, 1, 0), ValueGraph.from_edges(3, [(0, 1)]), "complete graphs"),
            ((1, 1), K3, "expected 3 bundle entries"),
        ],
    )
    def test_rejects_a_graph_or_bundle_it_cannot_chain(self, bundle, graph, message):
        with pytest.raises(ValueError, match=message):
            nested_chain_point(bundle, 2, graph)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_chain_structure_and_projection(self, data):
        n = data.draw(st.integers(1, 5))
        m = data.draw(st.integers(1, 5))
        g = ValueGraph.complete(n)
        bundle = tuple(data.draw(st.integers(0, m)) for _ in range(n))
        point, parts = nested_chain_point(bundle, m, g)
        assert project(point) == bundle
        assert len(parts) == m
        assert aggregate(g, parts) == point
        masks = tuple(bundle_mask(g, S) for S in parts)
        assert (point.coords, masks) in enumerate_decompositions(point, m)
        for big, small in zip(parts, parts[1:]):
            assert small <= big  # nested, empties last


class TestEnumerateDecompositions:
    def test_idp_point_has_none(self):
        assert list(enumerate_decompositions(IDP_POINT, 4)) == []

    def test_negative_point_is_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            enumerate_decompositions(GPoint(K3, (1, 1, 0, 0, 0, -1)), 2)

    def test_three_singletons_unique(self):
        found = [
            as_multiset(parts)
            for parts in split_bundles(GPoint(K3, (1, 1, 1, 0, 0, 0)), 3)
        ]
        assert found == [((0,), (1,), (2,))]

    def test_zero_point(self):
        found = list(enumerate_decompositions(GPoint.zero(K3), 2))
        assert found == [((0,) * 6, (0, 0))]

    def test_cap(self):
        with pytest.raises(CapExceededError):
            list(enumerate_decompositions(GPoint.zero(ValueGraph.complete(3)), 7))

    @pytest.mark.parametrize(
        "coords, m, expected",
        [
            ((1, 1, 0), 2, [((1,), (0,))]),  # a spare bundle must not take the edge
            ((1, 1, 1), 2, [((0, 1), ())]),
            ((1, 1, 1), 1, [((0, 1),)]),
            ((1, 0, 1), 2, []),  # edge above min(a_i, a_j)
            ((2, 2, 1), 2, []),  # edge below a_i + a_j - m
            ((2, 2, 1), 3, [((0, 1), (1,), (0,))]),
        ],
    )
    def test_edge_count_is_pinned(self, coords, m, expected):
        found = split_bundles(GPoint(K2, coords), m)
        assert [tuple(tuple(sorted(S)) for S in parts) for parts in found] == expected

    @given(graphs(max_n=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, g, data):
        """Every split once, in strictly decreasing order of its bitmask
        tuple (the order decompose prints). Probes points off the
        decomposable ones too, among them an edge coordinate above
        min(a_i, a_j) or below a_i + a_j - m, which no m bundles reach."""
        m = data.draw(st.integers(1, 3))
        verts = vertices_P(g)
        total = GPoint.zero(g)
        for _ in range(m):
            total = total + data.draw(st.sampled_from(verts))
        coords = list(total.coords)
        probe = data.draw(st.sampled_from(["sum", "lowered", "above", "below"]))
        if probe == "lowered":
            coords = [max(0, c - data.draw(st.integers(0, 1))) for c in coords]
        elif probe != "sum" and g.edges:
            t = data.draw(st.integers(0, len(g.edges) - 1))
            i, j = g.edges[t]
            if probe == "above":
                coords[g.n + t] = min(coords[i], coords[j]) + 1
            else:  # a_i + a_j - m = a_j > a_ij
                coords[i], coords[j] = m, data.draw(st.integers(1, m))
                coords[g.n + t] = data.draw(st.integers(0, coords[j] - 1))
        a = GPoint(g, tuple(coords))
        keys = [masks for _, masks in enumerate_decompositions(a, m)]
        assert all(list(k) == sorted(k, reverse=True) for k in keys)
        assert all(x > y for x, y in zip(keys, keys[1:]))
        found = split_bundles(a, m)
        assert {as_multiset(parts) for parts in found} == brute_force_decompositions(a, m)


class TestSearchDepth:
    """The search keeps its own stack, so its depth is bounded by the caps
    alone: 1,200 nonempty parts, above the interpreter's default recursion
    limit of 1,000, run without a frame per part."""

    K2 = ValueGraph.complete(2)
    CAPS = Caps(max_m=2000)

    def test_deep_search_yields_its_one_split(self):
        ((coords, masks),) = enumerate_decompositions(
            GPoint(self.K2, (1200, 1200, 1200)), 1200, self.CAPS
        )
        assert coords == (1200, 1200, 1200)
        assert masks == (0b11,) * 1200
        assert list(enumerate_aggregates(self.K2, (1200, 0), 1200, self.CAPS)) == [
            ((1200, 0, 0), (0b01,) * 1200)
        ]
        p = PriceVector(self.K2, (Fraction(1), Fraction(2), Fraction(-1)))
        assert seller_demand(p, (1200, 1200), 1200, self.CAPS) == {
            GPoint(self.K2, (1200, 1200, 1200))
        }

    def test_memory_is_linear_in_depth(self):
        """A child links to its parent's masks instead of copying them.
        With 3,000 parts, copied paths would hold about 4.5 million entries
        at once (36 MB): a dead sibling per level, each with its own path."""
        tracemalloc.start()
        try:
            ((_, masks),) = enumerate_decompositions(
                GPoint(self.K2, (3000, 3000, 3000)), 3000, Caps(max_m=3000)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert masks == (0b11,) * 3000
        assert peak < 8 * 2**20

    def test_depth_is_the_fewer_of_parts_and_supply(self):
        """1,200 parts over a supply of 300 units reach depth 300 at most."""
        ((coords, masks),) = enumerate_decompositions(
            GPoint(self.K2, (300, 300, 300)), 1200, self.CAPS
        )
        assert coords == (300, 300, 300)
        assert masks == (0b11,) * 300 + (0,) * 900


class TestEnumerateAggregates:
    def test_cutlery_supply(self):
        bundles = bundle_table(K3)
        found = [
            (coords, as_multiset(bundles[s] for s in masks))
            for coords, masks in enumerate_aggregates(K3, (1, 1, 1), 3)
        ]
        assert found == [
            ((1, 1, 1, 1, 1, 1), ((), (), (0, 1, 2))),
            ((1, 1, 1, 0, 0, 1), ((), (0,), (1, 2))),
            ((1, 1, 1, 0, 1, 0), ((), (0, 2), (1,))),
            ((1, 1, 1, 1, 0, 0), ((), (0, 1), (2,))),
            ((1, 1, 1, 0, 0, 0), ((0,), (1,), (2,))),
        ]

    def test_supply_above_m_has_none(self):
        assert list(enumerate_aggregates(K3, (2, 0, 0), 1)) == []

    def test_caps_checked_before_any_work(self):
        with pytest.raises(CapExceededError):
            enumerate_aggregates(ValueGraph.complete(7), (1,) * 7, 1)
        with pytest.raises(CapExceededError):
            enumerate_aggregates(K3, (1, 1, 1), 7)

    def test_bad_supply_rejected(self):
        with pytest.raises(ValueError, match="supply"):
            enumerate_aggregates(K3, (1, 1), 2)
        with pytest.raises(ValueError, match="nonnegative"):
            enumerate_aggregates(K3, (1, -1, 0), 2)

    @pytest.mark.parametrize(
        "entry", [1.5, 1.0, True, Fraction(1)], ids=["half", "float", "bool", "fraction"]
    )
    def test_supply_entries_must_be_ints(self, entry):
        with pytest.raises(ValueError, match="supply entries must be integers"):
            enumerate_aggregates(K3, (entry, 1, 0), 2)
        # checked after the length and before the signs
        with pytest.raises(ValueError, match="expected 3 supply entries"):
            enumerate_aggregates(K3, (entry, 1), 2)
        with pytest.raises(ValueError, match="supply entries must be integers"):
            enumerate_aggregates(K3, (-1, entry, 0), 2)

    @pytest.mark.parametrize("m", [-2, 2.0, True])
    def test_part_count_must_be_a_nonnegative_int(self, m):
        with pytest.raises(ValueError, match=f"m={m!r} must be a nonnegative int"):
            enumerate_aggregates(K3, (0, 0, 0), m)
        with pytest.raises(ValueError, match=f"m={m!r} must be a nonnegative int"):
            enumerate_decompositions(GPoint.zero(K3), m)

    @given(graphs(max_n=4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_box_of_decompositions(self, g, data):
        """Exactly the (point, split) pairs of the candidate box, each once,
        every split in enumerate_decompositions' canonical order."""
        from gpauction.demand import candidate_points

        m = data.draw(st.integers(1, 4 if g.n < 4 else 3))
        supply = tuple(data.draw(st.integers(0, m)) for _ in range(g.n))
        bundles = bundle_table(g)
        ours = [
            (GPoint(g, coords), tuple(bundles[s] for s in masks))
            for coords, masks in enumerate_aggregates(g, supply, m)
        ]
        box = [
            (a, parts)
            for a in candidate_points(g, supply)
            for parts in split_bundles(a, m)
        ]
        assert len(ours) == len(set(ours))
        assert set(ours) == set(box)


class TestOneItemShape:
    """Both enumerators yield (coords, masks) items from one search: a
    point's decompositions are the aggregate search's items at that point,
    in the same order."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_decompositions_are_the_aggregates_at_the_point(self, data):
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 3))
        g = thinned(data.draw, ValueGraph.complete(n))
        verts = vertices_P(g)
        total = GPoint.zero(g)
        for _ in range(m):
            total = total + data.draw(st.sampled_from(verts))
        coords = total.coords
        if data.draw(st.booleans()):  # often no longer a sum of m bundles
            coords = tuple(max(0, c - data.draw(st.integers(0, 1))) for c in coords)
        a = GPoint(g, coords)
        at_a = [item for item in enumerate_aggregates(g, project(a), m) if item[0] == coords]
        assert list(enumerate_decompositions(a, m)) == at_a


class TestCliqueDecompose:
    """A sum of r copies of each of several disjoint cliques splits back
    into exactly those cliques, r times each, and in no other way."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_on_random_disjoint_cliques(self, data):
        n = data.draw(st.integers(1, 6))
        r = data.draw(st.integers(1, 3))
        g = ValueGraph.complete(n)
        verts = list(range(n))
        blocks = []
        while verts and len(blocks) < 6 // r and data.draw(st.booleans()):
            size = data.draw(st.integers(1, len(verts)))
            blocks.append(frozenset(verts[:size]))
            verts = verts[size:]
        a = GPoint.zero(g)
        for B in blocks:
            a = a + char_vector(B, g).scale(r)
        m = max(1, r * len(blocks))
        found = split_bundles(a, m)
        assert len(found) == 1
        parts = found[0]
        assert aggregate(g, parts) == a
        expected = [B for B in blocks for _ in range(r)]
        expected += [frozenset()] * (m - len(expected))
        assert as_multiset(parts) == as_multiset(expected)


HOUSE_FACES = corpus_instance("house").faces
HOUSE_POINT = corpus_instance("house").point
IDP_FACES = corpus_instance("idp-k4").faces


class TestMinkowskiOracles:
    def test_house_point_in_sum_but_not_vertex_sum(self):
        assert minkowski_contains(list(HOUSE_FACES), HOUSE_POINT)
        assert vertex_sum_contains(list(HOUSE_FACES), HOUSE_POINT) is None

    def test_single_vertex_face(self):
        q = char_vector([0, 1], K3)
        face = Face(K3, (q,))
        assert minkowski_contains([face], q)
        assert vertex_sum_contains([face], q) == (q,)

    def test_idp_point_in_edge_sum(self):
        assert minkowski_contains(list(IDP_FACES), IDP_POINT)
        assert vertex_sum_contains(list(IDP_FACES), IDP_POINT) is None

    def test_vertex_assignment_sums_to_point(self):
        faces = [
            Face.from_bundles(K3, [[0], [0, 1]]),
            Face.from_bundles(K3, [[2], []]),
        ]
        a = char_vector([0, 1], K3) + char_vector([2], K3)
        picked = vertex_sum_contains(faces, a)
        assert picked is not None
        total = GPoint.zero(K3)
        for q in picked:
            total = total + q
        assert total == a

    def test_vertex_outside_a_one_vertex_face(self):
        face = Face.from_bundles(K3, [[0]])
        assert not minkowski_contains([face], char_vector([1], K3))
        assert vertex_sum_contains([face], char_vector([1], K3)) is None

    def test_point_outside_a_sum_of_faces(self):
        """a_{012} has third coordinate 1; no point of {a_0} + [a_1, a_01] does."""
        faces = [Face.from_bundles(K3, [[0]]), Face.from_bundles(K3, [[1], [0, 1]])]
        assert not minkowski_contains(faces, char_vector([0, 1, 2], K3))
        assert vertex_sum_contains(faces, char_vector([0, 1, 2], K3)) is None

    @pytest.mark.parametrize("oracle", [minkowski_contains, vertex_sum_contains])
    def test_faces_and_point_over_different_graphs(self, oracle):
        with pytest.raises(ValueError, match="share one graph"):
            oracle([Face.from_bundles(K2, [[0]])], char_vector([0], K3))

    def test_vertex_product_over_the_cap(self):
        """2^27 vertex choices pass VERTEX_PRODUCT_CAP = 10^8, and the
        search raises before it starts."""
        faces = [Face.from_bundles(K3, [[0], [1]])] * 27
        with pytest.raises(CapExceededError, match="vertex product"):
            vertex_sum_contains(faces, GPoint.zero(K3))

    def test_many_faces_need_no_frame_each(self):
        """1,200 one-vertex faces: a vertex product of 1, far under the cap,
        searched past the interpreter's default recursion limit of 1,000."""
        g = ValueGraph(1, ())
        face = Face.from_bundles(g, [[0]])
        picked = vertex_sum_contains([face] * 1200, GPoint(g, (1200,)))
        assert picked == face.vertices * 1200

    def test_first_witness_in_face_and_vertex_order(self):
        """Both orders of a_0 and a_1 sum to (1, 1); the search returns the
        one that takes each face's vertices in their listed order first."""
        g = ValueGraph(2, ())
        faces = [Face.from_bundles(g, [[0], [1]]), Face.from_bundles(g, [[1], [0]])]
        a0, a1 = char_vector([0], g), char_vector([1], g)
        assert vertex_sum_contains(faces, GPoint(g, (1, 1))) == (a0, a1)
        assert vertex_sum_contains(faces[::-1], GPoint(g, (1, 1))) == (a1, a0)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_one_vertex_faces_agree_with_vertex_sum(self, data):
        """Over one-vertex faces the sum is a single point, so the LP
        (feasible, or infeasible with a Farkas certificate) and the vertex
        search agree, for points inside and outside it."""
        g = data.draw(graphs(max_n=4))
        verts = vertices_P(g)
        nfaces = data.draw(st.integers(1, 3))
        faces = [Face(g, (data.draw(st.sampled_from(verts)),)) for _ in range(nfaces)]
        a = GPoint.zero(g)
        for _ in range(nfaces):
            a = a + data.draw(st.sampled_from(verts))
        assert minkowski_contains(faces, a) == (vertex_sum_contains(faces, a) is not None)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_vertex_sum_implies_minkowski(self, data):
        g = data.draw(graphs(max_n=4))
        verts = vertices_P(g)
        nfaces = data.draw(st.integers(1, 3))
        faces = []
        total = GPoint.zero(g)
        for _ in range(nfaces):
            chosen = data.draw(
                st.lists(st.sampled_from(verts), min_size=1, max_size=3, unique=True)
            )
            faces.append(Face(g, tuple(chosen)))
            total = total + data.draw(st.sampled_from(chosen))
        assert vertex_sum_contains(faces, total) is not None
        assert minkowski_contains(faces, total)


class TestFaceValidation:
    def test_rejects_non_characteristic(self):
        with pytest.raises(ValueError):
            Face(K3, (GPoint(K3, (1, 1, 0, 0, 0, 0)),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Face(K3, ())

    def test_rejects_vertex_over_another_graph(self):
        with pytest.raises(ValueError, match="different graph"):
            Face(K3, (char_vector([0], K2),))
