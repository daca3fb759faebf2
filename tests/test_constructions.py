"""Builders: quad patches, polygon quotients, sums, splits, dispatch."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

import _oracles as orc
import fixtures as fx
from surfacemaps import (
    CertificationError,
    ConstructionRecipe,
    GluingError,
    SimplicialVertexMap,
    TriangulatedSurface,
    VARIANTS,
    VariantError,
    build_polygon,
    build_sum_high,
    build_sum_low,
    connected_sum,
    construct,
    degree,
    degree_report_to_dict,
    dumps_json,
    euler_characteristic,
    f_vector,
    genus,
    map_to_dict,
    orient,
    recipe_for,
    reverse_orientation,
    sigma2_10v,
    sigma2_13v,
    split_triangle_with_edge,
    surface_to_dict,
    tetrahedron,
    torus7,
    validate_closed_surface,
)
from surfacemaps import constructions
from surfacemaps.constructions import QuadPatchSlots, quad_patch


def test_torus7_matches_fixture_transcription():
    t = torus7()
    assert t.facets == fx.TORUS7_FACETS
    assert t.positive_reference == fx.TORUS7_REFERENCE


def test_quad_patch_with_torus_identification_reproduces_torus7():
    slots = QuadPatchSlots(
        bl="v1", br="v1", tl="v1", tr="v1",
        b1="v2", b2="v3", t1="v2", t2="v3",
        l1="v5", l2="v4", r1="v5", r2="v4",
        m_low="v7", m_high="v6",
    )
    assert tuple(sorted(quad_patch(slots))) == fx.TORUS7_FACETS


def test_quad_patch_rejects_slot_collisions():
    slots = QuadPatchSlots(
        bl="v1", br="v1", tl="v1", tr="v1",
        b1="v2", b2="v2", t1="v2", t2="v3",
        l1="v5", l2="v4", r1="v5", r2="v4",
        m_low="v7", m_high="v6",
    )
    with pytest.raises(GluingError):
        quad_patch(slots)


@pytest.mark.parametrize("g,d", [(1, 1), (1, 2), (2, 3), (2, 4), (3, 5)])
def test_build_polygon_certified_counts(g, d):
    bundle = build_polygon(g, d)
    fv = f_vector(bundle.surface)
    assert fv.vertices == 7 * d + 2 - 2 * g
    assert fv.facets == 14 * d
    assert genus(bundle.surface) == g
    assert bundle.report.degree == d
    assert bundle.report.degenerate_facets == 0


def test_build_polygon_negative_degree_reverses_reference():
    pos = build_polygon(2, 3)
    neg = build_polygon(2, -3)
    assert neg.surface.facets == pos.surface.facets
    assert neg.report.degree == -3
    signs_pos = orient(pos.surface).signs
    signs_neg = orient(neg.surface).signs
    assert all(signs_pos[f] == -signs_neg[f] for f in signs_pos)


def test_build_polygon_degree_matches_oracle():
    bundle = build_polygon(2, 3)
    expected = orc.degree_at_first_facet(
        bundle.surface.facets,
        bundle.surface.default_reference(),
        fx.TORUS7_FACETS,
        fx.TORUS7_REFERENCE,
        bundle.vertex_map.assignment,
    )
    assert expected == 3


def test_build_polygon_rejects_low_degree():
    with pytest.raises(VariantError):
        build_polygon(2, 2)
    with pytest.raises(VariantError):
        build_polygon(1, 0)


def test_split_triangle_replaces_one_facet_with_five():
    t = torus7()
    s = split_triangle_with_edge(t, ("v2", "v3", "v5"), "w1", "w2")
    assert f_vector(s).as_tuple() == (9, 27, 18)
    assert euler_characteristic(s) == 0
    assert genus(s) == 1
    assert ("v2", "v3", "v5") not in s.facet_set()
    for new in [("v2", "w1", "w2"), ("v2", "v3", "w2"), ("v2", "w1", "v5"), ("v3", "w1", "w2"), ("v3", "w1", "v5")]:
        assert tuple(sorted(new)) in s.facet_set()


def test_split_preserves_untouched_signs():
    t = torus7()
    before = orient(t).signs
    s = split_triangle_with_edge(t, ("v2", "v3", "v5"), "w1", "w2")
    after = orient(s).signs
    for f, sign in before.items():
        if f != ("v2", "v3", "v5"):
            assert after[f] == sign


def test_split_of_reference_facet_keeps_orientation_class():
    t = torus7()
    s = split_triangle_with_edge(t, ("v1", "v2", "v4"), "w1", "w2")
    after = orient(s).signs
    before = orient(t).signs
    for f, sign in before.items():
        if f != ("v1", "v2", "v4"):
            assert after[f] == sign


def test_split_rejects_missing_facet_and_label_clashes():
    t = torus7()
    with pytest.raises(ValueError):
        split_triangle_with_edge(t, ("v1", "v2", "v3"), "w1", "w2")
    with pytest.raises(ValueError):
        split_triangle_with_edge(t, ("v1", "v2", "v4"), "v5", "w2")
    with pytest.raises(ValueError):
        split_triangle_with_edge(t, ("v1", "v2", "v4"), "w1", "w1")


def test_connected_sum_of_two_tori_is_genus_two():
    t = torus7()
    t2 = t.relabel({v: v.replace("v", "w") for v in t.vertices})
    s = connected_sum(t, t2, ("v1", "v2", "v4"), ("w1", "w2", "w4"))
    assert validate_closed_surface(s).ok
    assert genus(s) == 2
    fv = f_vector(s)
    assert fv.vertices == 7 + 7 - 3
    assert fv.facets == 14 + 14 - 2


def test_connected_sum_requires_disjoint_labels():
    t = torus7()
    with pytest.raises(GluingError):
        connected_sum(t, t, ("v1", "v2", "v4"), ("v1", "v2", "v4"))


def test_connected_sum_rejects_incoherent_explicit_gluing():
    t = torus7()
    t2 = t.relabel({v: v.replace("v", "w") for v in t.vertices})
    coherent = None
    for perm in [
        {"v1": "w1", "v2": "w2", "v4": "w4"},
        {"v1": "w1", "v2": "w4", "v4": "w2"},
    ]:
        try:
            s = connected_sum(t, t2, ("v1", "v2", "v4"), ("w1", "w2", "w4"), gluing=perm)
            coherent = perm
        except GluingError:
            incoherent = perm
    # exactly one of the two bijections glues coherently
    assert coherent is not None and incoherent is not None
    assert genus(s) == 2


def test_connected_sum_genus_additivity_beyond_tori():
    a = sigma2_10v().surface
    b = torus7().relabel({v: v.replace("v", "w") for v in torus7().vertices})
    s = connected_sum(a, b, a.facets[0], ("w1", "w2", "w4"))
    assert genus(s) == 3


def test_sigma2_10v_matches_paper_transcription():
    bundle = sigma2_10v()
    canonical = tuple(sorted(tuple(sorted(f)) for f in fx.SIGMA2_10V_FACETS))
    assert bundle.surface.facets == canonical
    assert bundle.surface.positive_reference == fx.SIGMA2_10V_REFERENCE
    assert dict(bundle.vertex_map.assignment) == fx.SIGMA2_10V_ASSIGNMENT
    assert f_vector(bundle.surface).as_tuple() == (10, 36, 24)
    assert genus(bundle.surface) == 2
    assert bundle.report.degree == 1


def test_sigma2_13v_is_the_two_torus_tower():
    bundle = sigma2_13v()
    assert bundle.surface == build_sum_high(2, 0).surface
    assert f_vector(bundle.surface).vertices == 13
    assert bundle.report.degree == 2


@pytest.mark.parametrize("g,i", [(2, 0), (3, 0), (3, 1), (4, 2)])
def test_build_sum_high_grid(g, i):
    bundle = build_sum_high(g, i)
    fv = f_vector(bundle.surface)
    assert fv.vertices == 6 * (g + i) + 1
    assert fv.facets == 16 * g + 12 * i - 2
    assert genus(bundle.surface) == g
    assert bundle.report.degree == g + i
    assert bundle.report.degenerate_facets == 2 * (g - i - 1)


def test_build_sum_high_20_degenerates_land_on_edge_v3_v4():
    bundle = build_sum_high(2, 0)
    f = bundle.vertex_map
    degenerate = [
        facet
        for facet in bundle.surface.facets
        if len({f.assignment[v] for v in facet}) < 3
    ]
    assert degenerate == [("u_3_1", "u_3_2", "u_4_1"), ("u_3_1", "u_3_2", "u_4_2")]
    for facet in degenerate:
        assert {f.assignment[v] for v in facet} == {"v3", "v4"}


@pytest.mark.parametrize("g,i", [(2, 1), (3, 1), (3, 2), (5, 4)])
def test_build_sum_low_grid(g, i):
    bundle = build_sum_low(g, i)
    fv = f_vector(bundle.surface)
    assert fv.vertices == 6 * g - 2 * i + 1
    assert fv.facets == 16 * g - 4 * i - 2
    assert genus(bundle.surface) == g
    assert bundle.report.degree == g - i
    assert bundle.report.nondegenerate_facets == 14 * (g - i)


def test_tower_applicability_rules():
    with pytest.raises(VariantError):
        build_sum_high(2, 1)  # needs i <= g - 2
    with pytest.raises(VariantError):
        build_sum_low(2, 0)  # needs i >= 1
    with pytest.raises(VariantError):
        build_sum_low(2, 2)  # needs i <= g - 1


def test_tower_degrees_match_oracle():
    for bundle in (build_sum_high(2, 0), build_sum_low(2, 1)):
        expected = orc.degree_at_first_facet(
            bundle.surface.facets,
            bundle.surface.default_reference(),
            fx.TORUS7_FACETS,
            fx.TORUS7_REFERENCE,
            bundle.vertex_map.assignment,
        )
        assert bundle.report.degree == expected


# recipe_for(g, d) with no variant named, for g = 1..8 and |d| = 0..16,
# frozen from the if-chain dispatcher the variant table replaced.  Entries
# are <variant code><expected vertices>; d and -d resolve alike.
_VARIANT_CODES = {"C": "constant", "P": "polygon", "H": "sum-high", "L": "sum-low", "T": "sigma2-10v"}
_FROZEN_RECIPES = {
    1: "C7 P7 P14 P21 P28 P35 P42 P49 P56 P63 P70 P77 P84 P91 P98 P105 P112",
    2: "C10 T10 H13 P19 P26 P33 P40 P47 P54 P61 P68 P75 P82 P89 P96 P103 P110",
    3: "C15 L15 L17 H19 H25 P31 P38 P45 P52 P59 P66 P73 P80 P87 P94 P101 P108",
    4: "C19 L19 L21 L23 H25 H31 H37 P43 P50 P57 P64 P71 P78 P85 P92 P99 P106",
    5: "C23 L23 L25 L27 L29 H31 H37 H43 H49 P55 P62 P69 P76 P83 P90 P97 P104",
    6: "C27 L27 L29 L31 L33 L35 H37 H43 H49 H55 H61 P67 P74 P81 P88 P95 P102",
    7: "C31 L31 L33 L35 L37 L39 L41 H43 H49 H55 H61 H67 H73 P79 P86 P93 P100",
    8: "C35 L35 L37 L39 L41 L43 L45 L47 H49 H55 H61 H67 H73 H79 H85 P91 P98",
}


def test_recipe_dispatch_table():
    for g, row in _FROZEN_RECIPES.items():
        entries = row.split()
        for d in range(-16, 17):
            entry = entries[abs(d)]
            recipe = recipe_for(g, d)
            assert (recipe.variant, recipe.expected_vertices) == (_VARIANT_CODES[entry[0]], int(entry[1:])), (g, d)
            assert (recipe.genus, recipe.degree) == (g, d)
    assert recipe_for(1, 0).variant == "constant"
    assert recipe_for(2, 1).variant == "sigma2-10v"
    assert recipe_for(2, -1).variant == "sigma2-10v"
    assert recipe_for(2, 2).variant == "sum-high"
    assert recipe_for(2, 3).variant == "polygon"
    assert recipe_for(3, 1).variant == "sum-low"
    assert recipe_for(3, 3).variant == "sum-high"
    assert recipe_for(3, 5).variant == "polygon"
    assert recipe_for(5, 2).variant == "sum-low"
    with pytest.raises(VariantError):
        recipe_for(0, 1)
    with pytest.raises(VariantError):
        recipe_for(2, 2, variant="polygon")


@pytest.mark.parametrize("g,d", [(1, 0), (2, 0), (4, 0), (1, -2), (2, -2), (3, -2), (4, -7)])
def test_construct_covers_negatives_and_zero(g, d):
    bundle = construct(g, d)
    assert genus(bundle.surface) == g
    assert bundle.report.degree == d
    assert f_vector(bundle.surface).vertices == bundle.recipe.expected_vertices


def test_constant_recipe_counts_without_building(monkeypatch):
    def refuse(g, m):
        raise AssertionError("recipe_for built a surface")

    for name, entry in constructions._VARIANTS.items():
        monkeypatch.setitem(constructions._VARIANTS, name, entry._replace(build=refuse))
    assert recipe_for(4, 0).expected_vertices == 19


# Every (g, d, variant) with g = 1..6, d = -8..8 and the variant applicable.
_CONSTRUCT_GRID = [
    (g, d, variant)
    for g in range(1, 7)
    for d in range(-8, 9)
    for variant in VARIANTS
    if constructions._VARIANTS[variant].applies(g, abs(d))
]

# sha256 of construct's surface, map, degree report and recipe JSON over
# _CONSTRUCT_GRID, frozen from the builders that certified every level of
# a tower as they built it.
_FROZEN_CONSTRUCT_DIGEST = "8edfb6345f02c832a7fa75b8495363e2075030e09c8360036d9dc0fa55bf9bfa"


def test_construct_output_is_frozen():
    digest = hashlib.sha256()
    for g, d, variant in _CONSTRUCT_GRID:
        bundle = construct(g, d, variant)
        doc = {
            "surface": surface_to_dict(bundle.surface),
            "map": map_to_dict(bundle.vertex_map),
            "report": degree_report_to_dict(bundle.report),
            "recipe": dataclasses.asdict(bundle.recipe),
        }
        digest.update(dumps_json(doc).encode())
    assert digest.hexdigest() == _FROZEN_CONSTRUCT_DIGEST


def counting_certify(monkeypatch):
    """Patch constructions._certify to record the recipe of each call; returns the list."""
    calls = []
    real = constructions._certify

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(constructions, "_certify", counting)
    return calls


@pytest.mark.parametrize("d, variant", [(2, None), (2, "sigma2-13v"), (-2, None), (-2, "sigma2-13v")])
def test_construct_certifies_the_13_vertex_surface_once(monkeypatch, d, variant):
    # The tower below sum-high(2, 0) is built uncertified, and a reversed
    # surface (d < 0) is certified only at d.
    plain = construct(2, d)
    calls = counting_certify(monkeypatch)
    result = construct(2, d, variant=variant)
    assert calls == [result.recipe] == [recipe_for(2, d, variant)]
    assert result._replace(recipe=plain.recipe) == plain


def test_every_construct_call_certifies_once(monkeypatch):
    calls = counting_certify(monkeypatch)
    for g, d, variant in _CONSTRUCT_GRID:
        calls.clear()
        result = construct(g, d, variant)
        assert calls == [result.recipe], (g, d, variant)


_TORUS7_RECIPE = ConstructionRecipe(variant="polygon", genus=1, degree=1, expected_vertices=7)


def open_torus7():
    return TriangulatedSurface.from_facets(fx.TORUS7_FACETS[:-1])


@pytest.mark.parametrize(
    "surface, recipe, message",
    [
        (open_torus7, _TORUS7_RECIPE, "built surface is invalid: edge_degree"),
        (torus7, dataclasses.replace(_TORUS7_RECIPE, genus=2), "built surface has genus 1, expected 2"),
        (torus7, dataclasses.replace(_TORUS7_RECIPE, expected_vertices=8), "built surface has 7 vertices, expected 8"),
        (torus7, dataclasses.replace(_TORUS7_RECIPE, degree=-1), "built map has degree 1, expected -1"),
    ],
    ids=["invalid", "genus", "vertices", "degree"],
)
def test_certify_refuses_a_result_off_its_recipe(surface, recipe, message):
    # torus7 under the identity is a valid genus-1, 7-vertex, degree-1 result;
    # each recipe is off in one field (or the surface has a hole).
    domain = surface()
    identity = {v: v for v in domain.vertices}
    assert constructions._certify(torus7(), identity, _TORUS7_RECIPE).report.degree == 1
    with pytest.raises(CertificationError, match=message):
        constructions._certify(domain, identity, recipe)


def test_construct_certifies_against_recipe():
    bundle = construct(3, 2)
    assert bundle.recipe.variant == "sum-low"
    assert bundle.recipe.expected_vertices == 17


def test_tetrahedron_is_a_sphere():
    t = tetrahedron()
    assert genus(t) == 0
    assert euler_characteristic(t) == 2


def test_certification_failure_surfaces_as_error():
    # degree certification failure: impossible expectation through the
    # internal helper would be a library bug; emulate by reversing the
    # reference and asking the public API for the impossible variant
    with pytest.raises(VariantError):
        construct(2, 1, variant="polygon")
