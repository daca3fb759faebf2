"""Surface validation, f-vector, orientation, and genus."""

from __future__ import annotations

import random

import pytest

import _oracles as orc
import fixtures as fx
from surfacemaps import (
    InvalidSurfaceError,
    NonOrientableError,
    TriangulatedSurface,
    ascending,
    connected_components,
    construct,
    euler_characteristic,
    f_vector,
    genus,
    is_orientable,
    orient,
    require_valid,
    sigma2_10v,
    triple_parity,
    validate_closed_surface,
)


def surface(facets, reference=None):
    return TriangulatedSurface.from_facets(facets, positive_reference=reference)


TORUS = surface(fx.TORUS7_FACETS, fx.TORUS7_REFERENCE)
TETRA = surface(fx.TETRAHEDRON_FACETS)
RP2 = surface(fx.RP2_6_FACETS)


def test_triple_parity_counts_inversions():
    assert triple_parity(("a", "b", "c")) == 1
    assert triple_parity(("b", "a", "c")) == -1
    assert triple_parity(("b", "c", "a")) == 1
    assert triple_parity(("c", "b", "a")) == -1


def test_ascending_sorts_and_rejects_duplicates():
    assert ascending(("v3", "v1", "v2")) == ("v1", "v2", "v3")
    with pytest.raises(ValueError):
        ascending(("v1", "v1", "v2"))


def test_from_facets_normalizes_order_and_vertices():
    shuffled = surface([("v4", "v2", "v1")] + [f for f in fx.TETRAHEDRON_FACETS if set(f) != {"v1", "v2", "v4"}])
    assert shuffled.facets == TETRA.facets
    assert shuffled.vertices == ("v1", "v2", "v3", "v4")


def test_torus7_is_a_valid_closed_surface():
    report = validate_closed_surface(TORUS)
    assert report.ok and report.violations == ()


def test_f_vector_and_euler_characteristic():
    assert f_vector(TORUS).as_tuple() == (7, 21, 14)
    assert euler_characteristic(TORUS) == 0
    assert f_vector(TETRA).as_tuple() == (4, 6, 4)
    assert euler_characteristic(TETRA) == 2
    # 2e = 3f for any closed triangulated surface
    for s in (TORUS, TETRA, RP2):
        fv = f_vector(s)
        assert 2 * fv.edges == 3 * fv.facets


def test_genus_values():
    assert genus(TORUS) == 1
    assert genus(TETRA) == 0


def test_degenerate_facet_rejected():
    report = validate_closed_surface(
        TriangulatedSurface(vertices=("v1", "v2"), facets=(("v1", "v1", "v2"),), positive_reference=None)
    )
    assert "degenerate_facet" in report.codes()


def test_duplicate_facet_rejected():
    s = TriangulatedSurface(
        vertices=("v1", "v2", "v3"),
        facets=(("v1", "v2", "v3"), ("v1", "v2", "v3")),
        positive_reference=None,
    )
    assert "duplicate_facet" in validate_closed_surface(s).codes()


def test_undeclared_and_isolated_vertices_rejected():
    s = TriangulatedSurface(vertices=("v1",), facets=(("v1", "v2", "v3"),), positive_reference=None)
    assert "undeclared_vertex" in validate_closed_surface(s).codes()
    s2 = TriangulatedSurface.from_facets(fx.TETRAHEDRON_FACETS, vertices=["v9"])
    assert "isolated_vertex" in validate_closed_surface(s2).codes()


def test_open_disk_fails_edge_degree():
    s = surface(fx.TORUS7_FACETS[:-1])
    codes = validate_closed_surface(s).codes()
    assert "edge_degree" in codes


def test_pinched_vertex_fails_link_check():
    # two tetrahedron boundaries sharing a single vertex
    second = [tuple(v if v == "v1" else v.replace("v", "w") for v in f) for f in fx.TETRAHEDRON_FACETS]
    s = surface(list(fx.TETRAHEDRON_FACETS) + second)
    codes = validate_closed_surface(s).codes()
    assert "vertex_link" in codes


def test_disjoint_union_fails_connectivity():
    second = [tuple(v.replace("v", "w") for v in f) for f in fx.TETRAHEDRON_FACETS]
    s = surface(list(fx.TETRAHEDRON_FACETS) + second)
    assert "disconnected" in validate_closed_surface(s).codes()
    assert connected_components(s) == 2
    assert connected_components(TETRA) == 1
    assert connected_components(surface([])) == 0


def _with_tetra(extra):
    return surface(list(fx.TETRAHEDRON_FACETS) + list(extra))


def _link_degree(pairs, degree):
    return [("vertex_link", f"link of {v}: neighbour {w} has link-degree {degree}, expected 2") for v, w in pairs]


# Full reports, in order: each code with its detail text.
FROZEN_VIOLATIONS = {
    "open-disk": (
        lambda: surface(fx.TORUS7_FACETS[:-1]),
        [
            ("edge_degree", f"edge {e} lies in 1 facet(s), expected 2")
            for e in (["v4", "v6"], ["v4", "v7"], ["v6", "v7"])
        ]
        + _link_degree((("v4", "v6"), ("v4", "v7"), ("v6", "v4"), ("v6", "v7"), ("v7", "v4"), ("v7", "v6")), 1),
    ),
    "pinched-vertex": (
        lambda: _with_tetra(tuple(v if v == "v1" else v.replace("v", "w") for v in f) for f in fx.TETRAHEDRON_FACETS),
        [
            ("vertex_link", "link of v1 is not a single cycle (disconnected)"),
            ("disconnected", "facet adjacency graph has 2 components"),
        ],
    ),
    "disjoint-union": (
        lambda: _with_tetra(tuple(v.replace("v", "w") for v in f) for f in fx.TETRAHEDRON_FACETS),
        [("disconnected", "facet adjacency graph has 2 components")],
    ),
    "edge-on-three-facets": (
        lambda: _with_tetra([("v1", "v2", "v5")]),
        [
            ("edge_degree", "edge ['v1', 'v2'] lies in 3 facet(s), expected 2"),
            ("edge_degree", "edge ['v1', 'v5'] lies in 1 facet(s), expected 2"),
            ("edge_degree", "edge ['v2', 'v5'] lies in 1 facet(s), expected 2"),
            *_link_degree((("v1", "v2"),), 3),
            *_link_degree((("v1", "v5"),), 1),
            *_link_degree((("v2", "v1"),), 3),
            *_link_degree((("v2", "v5"), ("v5", "v1"), ("v5", "v2")), 1),
        ],
    ),
    "degenerate": (
        lambda: TriangulatedSurface(vertices=("v1", "v2"), facets=(("v1", "v1", "v2"),), positive_reference=None),
        [("degenerate_facet", "facet ['v1', 'v1', 'v2'] has a repeated vertex")],
    ),
    "duplicate": (
        lambda: TriangulatedSurface(
            vertices=("v1", "v2", "v3"), facets=(("v1", "v2", "v3"), ("v1", "v2", "v3")), positive_reference=None
        ),
        [("duplicate_facet", "facet ['v1', 'v2', 'v3'] occurs more than once")],
    ),
    "undeclared": (
        lambda: TriangulatedSurface(vertices=("v1",), facets=(("v1", "v2", "v3"),), positive_reference=None),
        [
            ("undeclared_vertex", "vertex v2 appears in a facet but is not declared"),
            ("undeclared_vertex", "vertex v3 appears in a facet but is not declared"),
            ("edge_degree", "edge ['v1', 'v2'] lies in 1 facet(s), expected 2"),
            ("edge_degree", "edge ['v1', 'v3'] lies in 1 facet(s), expected 2"),
            ("edge_degree", "edge ['v2', 'v3'] lies in 1 facet(s), expected 2"),
            *_link_degree((("v1", "v2"), ("v1", "v3"), ("v2", "v1"), ("v2", "v3"), ("v3", "v1"), ("v3", "v2")), 1),
        ],
    ),
    "isolated": (
        lambda: TriangulatedSurface.from_facets(fx.TETRAHEDRON_FACETS, vertices=["v9"]),
        [("isolated_vertex", "vertex v9 lies in no facet")],
    ),
    "empty": (lambda: surface([]), [("no_facets", "the complex has no facets")]),
}


@pytest.mark.parametrize("case", list(FROZEN_VIOLATIONS))
def test_violation_reports_are_frozen(case):
    build, expected = FROZEN_VIOLATIONS[case]
    report = validate_closed_surface(build())
    assert [(v.code, v.detail) for v in report.violations] == expected


def test_require_valid_raises_with_detail():
    with pytest.raises(InvalidSurfaceError):
        require_valid(surface(fx.TORUS7_FACETS[:-1]))


def test_orientation_matches_fixture_sign_table():
    signs = orient(TORUS).signs
    assert {f for f, s in signs.items() if s == 1} == fx.TORUS7_POSITIVE
    assert {f for f, s in signs.items() if s == -1} == fx.TORUS7_NEGATIVE


def relabelled(s, seed):
    """s with its labels permuted in a seeded order, so ascending orders change."""
    labels = list(s.vertices)
    random.Random(seed).shuffle(labels)
    return s.relabel(dict(zip(s.vertices, labels)))


ORIENTATION_CASES = {
    "torus7": lambda: TORUS,
    "tetrahedron": lambda: TETRA,
    "sigma2_10v": lambda: sigma2_10v().surface,
    **{f"construct({g},{d})": (lambda g=g, d=d: construct(g, d).surface) for g in range(1, 4) for d in range(-4, 5)},
    **{
        f"relabelled-{name}-{seed}": (lambda build=build, seed=seed: relabelled(build(), seed))
        for name, build in (
            ("torus7", lambda: TORUS),
            ("sigma2_10v", lambda: sigma2_10v().surface),
            ("construct(3,2)", lambda: construct(3, 2).surface),
        )
        for seed in range(3)
    },
    **{
        f"torus7-from-{'-'.join(r)}": (lambda r=r: TORUS.with_reference(r))
        for a, b, c in fx.TORUS7_FACETS
        for r in ((a, b, c), (b, a, c))
    },
}


@pytest.mark.parametrize("case", sorted(ORIENTATION_CASES))
def test_orientation_matches_edge_walk_oracle(case):
    s = ORIENTATION_CASES[case]()
    ref = s.default_reference()
    oracle = orc.orientation_by_edge_walk(s.facets, ref)
    assert oracle == dict(orient(s).signs)


def test_orientation_sign_respects_facet_order():
    o = orient(TORUS)
    assert o.sign(("v1", "v3", "v4")) == -1
    assert o.sign(("v3", "v1", "v4")) == 1  # one transposition flips the sign
    assert o.sign(("v1", "v2", "v4")) == 1


def test_reference_flip_negates_every_sign():
    flipped = TORUS.with_reference(("v2", "v1", "v4"))
    a, b = orient(TORUS).signs, orient(flipped).signs
    assert all(a[f] == -b[f] for f in a)


def test_coherence_every_edge_traversed_both_ways():
    # recompute the directed traversal induced by the library's signs
    signs = orient(TORUS).signs
    arcs: dict[tuple[str, str], int] = {}
    for (a, b, c), s in signs.items():
        trio = ((a, b), (b, c), (c, a)) if s == 1 else ((b, a), (c, b), (a, c))
        for arc in trio:
            arcs[arc] = arcs.get(arc, 0) + 1
    assert all(count == 1 for count in arcs.values())
    assert all((q, p) in arcs for p, q in arcs)


def test_orientability_agrees_with_brute_force():
    assert is_orientable(TORUS) and orc.brute_coherent_orientations(fx.TORUS7_FACETS) == 2
    assert is_orientable(TETRA) and orc.brute_coherent_orientations(fx.TETRAHEDRON_FACETS) == 2
    assert not is_orientable(RP2) and orc.brute_coherent_orientations(fx.RP2_6_FACETS) == 0


def test_rp2_is_valid_but_not_orientable():
    assert validate_closed_surface(RP2).ok
    assert euler_characteristic(RP2) == 1
    with pytest.raises(NonOrientableError):
        orient(RP2)
    with pytest.raises(NonOrientableError):
        genus(RP2)


def test_relabel_is_injective_and_preserves_structure():
    mapping = {v: v.replace("v", "x") for v in TORUS.vertices}
    relabeled = TORUS.relabel(mapping)
    assert genus(relabeled) == 1
    assert f_vector(relabeled).as_tuple() == (7, 21, 14)
    with pytest.raises(ValueError):
        TORUS.relabel({v: "x" for v in TORUS.vertices})


def test_reference_must_be_an_existing_facet():
    with pytest.raises(ValueError):
        surface(fx.TORUS7_FACETS, reference=("v1", "v2", "v3"))


def test_invalid_surface_refuses_metrics():
    broken = surface(fx.TORUS7_FACETS[:-1])
    with pytest.raises(InvalidSurfaceError):
        f_vector(broken)
    with pytest.raises(InvalidSurfaceError):
        genus(broken)


def test_empty_complex_refuses_metrics():
    empty = surface([])
    for metric in (f_vector, genus, orient, is_orientable):
        with pytest.raises(InvalidSurfaceError, match="no_facets"):
            metric(empty)
