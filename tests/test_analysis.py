"""Enumeration, automorphisms, spectra, bounds, and backend agreement."""

from __future__ import annotations

import gc
import itertools
import os
import random
import shutil
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import pytest

import _oracles as orc
import fixtures as fx
from surfacemaps import (
    DegreeRange,
    EnumerationCaps,
    NonOrientableError,
    SearchCapExceeded,
    SimplicialVertexMap,
    TriangulatedSurface,
    automorphisms,
    available_backends,
    build_polygon,
    build_sum_low,
    compose,
    construct,
    cycle_notation,
    degree,
    degree_bound,
    degree_spectrum,
    enumerate_simplicial_maps,
    identity_map,
    is_simplicial,
    sigma2_10v,
    simplicial_volume,
    tetrahedron,
    torus7,
    validate_simplicial,
    vertex_lower_bound,
)
from surfacemaps import analysis, maps
from surfacemaps.analysis import ENV_CAPS_VAR, KERNEL_INTERFACE
from surfacemaps.maps import DegreeInconsistencyError, MapDefinitionError
from surfacemaps.surface import apex_table, facet_walk

TORUS = torus7()
TETRA = tetrahedron()
SIGMA2 = sigma2_10v().surface
RELABELLED_TORUS = TORUS.relabel(dict(zip(TORUS.vertices, ("v4", "v7", "v1", "v6", "v2", "v5", "v3"))))


def require_compiled() -> None:
    """Skip when the compiled kernel is not built.

    With SURFACEMAPS_REQUIRE_COMPILED=1 in the environment the missing
    kernel is a failure instead, so a build that silently fell back to the
    Python backend cannot pass the backend-equality tests by skipping them.
    """
    if "compiled" in available_backends():
        return
    if os.environ.get("SURFACEMAPS_REQUIRE_COMPILED") == "1":
        pytest.fail("compiled backend not built but SURFACEMAPS_REQUIRE_COMPILED=1")
    pytest.skip("compiled backend not built")


def budgeted_chunks(dom, cod, budget, backend):
    """(partial maps, resume token) of every chunk of a budgeted sweep."""
    caps = EnumerationCaps(max_maps=budget)
    chunks, token = [], None
    while True:
        try:
            chunks.append((enumerate_simplicial_maps(dom, cod, caps, token, backend), None))
            return chunks
        except SearchCapExceeded as exc:
            token = exc.resume_token
            chunks.append((list(exc.partial_maps), token))


# ---------------------------------------------------------------- caps


def test_caps_parse_forms():
    assert EnumerationCaps.parse("12") == EnumerationCaps(12, 12)
    assert EnumerationCaps.parse("12x14") == EnumerationCaps(12, 14)
    assert EnumerationCaps.parse("12x14:500") == EnumerationCaps(12, 14, 500)
    assert EnumerationCaps.parse(":500") == EnumerationCaps(10, 10, 500)


@pytest.mark.parametrize("bad", ["", "x", "12x", "axb", "12x14:many", "1:2:3", ":0", ":-5"])
def test_caps_parse_rejects(bad):
    with pytest.raises(ValueError):
        EnumerationCaps.parse(bad)


def test_caps_reject_budgets_below_one():
    # The backends would read a negative budget differently (the compiled
    # kernel as "no budget", the Python search as "emit nothing"), and a zero
    # budget would hand back its resume token unchanged.
    with pytest.raises(ValueError):
        EnumerationCaps(max_maps=-5)


def test_caps_default_reads_environment(monkeypatch):
    monkeypatch.setenv(ENV_CAPS_VAR, "11x12:77")
    assert EnumerationCaps.default() == EnumerationCaps(11, 12, 77)
    monkeypatch.delenv(ENV_CAPS_VAR)
    assert EnumerationCaps.default() == EnumerationCaps()


# ---------------------------------------------------------- enumeration


def test_vertex_guard_refuses_oversized_nonbijective_search():
    big = build_polygon(2, 3).surface  # 19 vertices
    with pytest.raises(SearchCapExceeded) as exc:
        enumerate_simplicial_maps(big, TORUS)
    assert exc.value.reason == "vertex-guard"


def test_enumeration_count_matches_frozen_constant_and_oracle():
    maps = enumerate_simplicial_maps(TORUS, TORUS)
    assert len(maps) == fx.TORUS7_SELF_MAP_COUNT
    # small case fully against the brute-force route
    tetra_maps = enumerate_simplicial_maps(TETRA, TETRA)
    assert len(tetra_maps) == fx.TETRA_SELF_MAP_COUNT
    oracle = orc.brute_force_simplicial_maps(TETRA.facets, TETRA.facets)
    assert [dict(m.assignment) for m in tetra_maps] != []
    assert sorted(map(sorted, (m.assignment.items() for m in tetra_maps))) == sorted(
        map(sorted, (a.items() for a in oracle))
    )


def test_enumeration_cross_surface_matches_oracle():
    maps = enumerate_simplicial_maps(TETRA, TORUS)
    oracle = orc.brute_force_simplicial_maps(TETRA.facets, TORUS.facets)
    assert len(maps) == len(oracle)
    assert {tuple(sorted(m.assignment.items())) for m in maps} == {
        tuple(sorted(a.items())) for a in oracle
    }


def test_enumeration_is_duplicate_free_and_simplicial():
    maps = enumerate_simplicial_maps(TETRA, TORUS)
    seen = {tuple(sorted(m.assignment.items())) for m in maps}
    assert len(seen) == len(maps)
    assert all(validate_simplicial(m).ok for m in maps)


def test_backends_emit_identical_sequences():
    require_compiled()
    for dom, cod in [(TETRA, TETRA), (TETRA, TORUS), (TORUS, TORUS)]:
        a = enumerate_simplicial_maps(dom, cod, backend="python")
        b = enumerate_simplicial_maps(dom, cod, backend="compiled")
        assert a == b


@pytest.mark.parametrize("dom, cod, budget", [(TETRA, TORUS, 100), (TORUS, TORUS, 5000)])
def test_backends_agree_on_budgeted_and_resumed_chunks(dom, cod, budget):
    require_compiled()
    a = budgeted_chunks(dom, cod, budget, "python")
    b = budgeted_chunks(dom, cod, budget, "compiled")
    assert len(a) > 1
    assert a == b


def is_bijective(f):
    return len(set(f.assignment.values())) == len(f.codomain.vertices) == len(f.domain.vertices)


@pytest.mark.parametrize(
    "surface, order", [(TETRA, 24), (TORUS, 42), (SIGMA2, 3)], ids=["tetra", "torus7", "sigma2_10v"]
)
def test_backends_agree_on_bijective_search(surface, order):
    # bijective_only is the unrestricted enumeration filtered to bijections, in
    # order.  sigma2_10v's unrestricted 10 -> 10 sweep is too slow to serve as
    # the oracle, so it keeps its frozen order.
    caps = EnumerationCaps(bijective_only=True)
    for backend in available_backends():
        maps = enumerate_simplicial_maps(surface, surface, caps, backend=backend)
        assert len(maps) == order and maps == automorphisms(surface)
        assert all(is_bijective(f) and is_simplicial(f) for f in maps)
        if surface is not SIGMA2:
            everything = enumerate_simplicial_maps(surface, surface, backend=backend)
            assert maps == [f for f in everything if is_bijective(f)]


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_bijective_only_budget_chunks_reassemble_in_order(backend):
    if backend == "compiled":
        require_compiled()
    caps = EnumerationCaps(max_maps=5, bijective_only=True)
    chunks, token = [], None
    while True:
        try:
            chunks += enumerate_simplicial_maps(TORUS, TORUS, caps, token, backend)
            break
        except SearchCapExceeded as exc:
            assert exc.reason == "map-budget" and len(exc.partial_maps) == 5
            chunks += exc.partial_maps
            token = exc.resume_token
    assert chunks == automorphisms(TORUS) and len(chunks) == 42


# A 7-vertex sphere (the bipyramid over a pentagon): torus7's vertex count
# with 10 facets instead of 14.
SPHERE7 = TriangulatedSurface.from_facets(
    [(pole, f"v{i}", f"v{i % 5 + 1}") for pole in ("v6", "v7") for i in range(1, 6)]
)


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_bijective_search_between_different_sizes_is_empty(backend):
    if backend == "compiled":
        require_compiled()
    caps = EnumerationCaps(bijective_only=True)
    for dom, cod in [(TETRA, TORUS), (TORUS, TETRA), (SPHERE7, TORUS), (TORUS, SPHERE7)]:
        assert enumerate_simplicial_maps(dom, cod, caps, backend=backend) == []
        assert analysis._isomorphism_vectors(analysis._prepare(dom, cod)) == []


def test_isomorphism_paths_build_no_search_tables(monkeypatch):
    def refuse(problem):
        raise AssertionError("search tables built for an isomorphism query")

    monkeypatch.setattr(analysis, "_search_args", refuse)
    assert len(automorphisms(TORUS)) == 42
    for backend in available_backends():
        caps = EnumerationCaps(bijective_only=True)
        assert len(enumerate_simplicial_maps(SIGMA2, SIGMA2, caps, backend=backend)) == 3
    with pytest.raises(AssertionError):
        enumerate_simplicial_maps(TETRA, TETRA)


def test_isomorphism_vectors_keep_exactly_the_simplicial_bijections():
    problem = analysis._prepare(TORUS, TORUS)
    expected = []
    for vector in itertools.permutations(range(7)):
        forward = {problem.dom_order[t]: problem.cod_order[c] for t, c in enumerate(vector)}
        inverse = {w: v for v, w in forward.items()}
        if is_simplicial(SimplicialVertexMap.build(TORUS, TORUS, forward)) and is_simplicial(
            SimplicialVertexMap.build(TORUS, TORUS, inverse)
        ):
            expected.append(vector)
    assert len(expected) == 42
    assert analysis._isomorphism_vectors(problem) == expected


def test_automorphisms_of_a_28_vertex_torus():
    # The bijective search this replaced took minutes here; the 56 was
    # cross-checked against it.
    surface = construct(1, 4).surface
    autos = automorphisms(surface)
    assert len(autos) == 56
    assert identity_map(surface) in autos
    assert all(is_simplicial(f) for f in autos)
    group = {tuple(f.assignment.values()) for f in autos}
    assert len(group) == 56
    assert all(tuple(compose(f, g).assignment.values()) in group for f in autos for g in autos)


@pytest.mark.parametrize(
    "surface", [TORUS, RELABELLED_TORUS, SIGMA2, SPHERE7], ids=["torus7", "relabelled-torus7", "sigma2_10v", "sphere7"]
)
def test_apex_table_answers_the_edge_and_facet_checks(surface):
    problem = analysis._prepare(TETRA, surface)
    index = {v: i for i, v in enumerate(problem.cod_order)}
    label_facets = set(surface.facets)
    label_edges = {frozenset(e) for e in surface.edges()}
    # The search's index-space table and the label-space table validation reads.
    for apex, vertices, facets, edges in (
        (problem.cod_apex, range(len(index)), {tuple(sorted(index[v] for v in f)) for f in label_facets},
         {frozenset(index[v] for v in e) for e in label_edges}),
        (apex_table(surface.facets), surface.vertices, label_facets, label_edges),
    ):
        for a, b in itertools.permutations(vertices, 2):
            assert ((a, b) in apex) == (frozenset((a, b)) in edges)
        for a, b, c in itertools.permutations(vertices, 3):
            assert (c in apex.get((a, b), ())) == (tuple(sorted((a, b, c))) in facets)
    # One step per edge, entering every facet, from any ordered first facet.
    apex = apex_table(surface.facets)
    for first in (surface.facets[0], surface.facets[-1][::-1]):
        steps = list(facet_walk(apex, first))
        assert sorted(tuple(sorted((x, y))) for x, y, _, _ in steps) == list(surface.edges())
        assert {tuple(sorted(first))} | {tuple(sorted((x, y, w))) for x, y, _, w in steps} == label_facets
        assert all(tuple(sorted((x, y, z))) in label_facets and z != w for x, y, z, w in steps)


def test_compiled_search_memory_is_quadratic_in_the_codomain():
    # With an m**3 facet table, as the kernel once took, this search peaked at 147.6 MB.
    require_compiled()
    problem = analysis._prepare(TETRA, construct(1, 60).surface)
    assert len(problem.cod_order) == 420
    tracemalloc.start()
    try:
        vectors, truncated = analysis._kernel.search(*analysis._search_args(problem), -1, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(vectors) == 48300 and not truncated
    assert peak < 24 * 2**20


def test_python_search_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        enumerate_simplicial_maps(TORUS, TORUS, backend="python")
        try:
            enumerate_simplicial_maps(TORUS, TORUS, EnumerationCaps(max_maps=500), backend="python")
        except SearchCapExceeded:
            pass
        degree_spectrum(TORUS, TORUS, backend="python")
        assert gc.collect() == 0
    finally:
        gc.enable()


# Valid kernel tables for a 3-vertex domain whose vertices pairwise share an
# edge and which has one facet, mapped into a codomain that is one triangle:
# each of its edges has the third vertex as its only apex, -1 fills the other
# slot, and both slots of a non-edge aa are -1.
KERNEL_ARGS = dict(
    n=3,
    m=3,
    pair_off=[0, 0, 1, 3],
    pair_pos=[0, 0, 1],
    tri_off=[0, 0, 0, 2],
    tri_pos=[0, 1],
    # the two apexes of ab for ab = 00, 01, 02, 10, 11, 12, 20, 21, 22
    apex=[-1, -1, 2, -1, 1, -1, 2, -1, -1, -1, 0, -1, 1, -1, 0, -1, -1, -1],
    max_maps=-1,
    start=None,
)


def search_of(backend):
    """The search function of backend "python" or "compiled" (skipped when not built)."""
    if backend == "python":
        return analysis._python_search
    require_compiled()
    return analysis._kernel.search


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_kernel_accepts_well_formed_tables(backend):
    # Keyword arguments: both searches must also name their parameters alike.
    search = search_of(backend)
    vectors, truncated = search(**KERNEL_ARGS)
    assert len(vectors) == 27 and vectors == sorted(vectors) and not truncated
    vectors, truncated = search(**dict(KERNEL_ARGS, max_maps=4, start=[0, 1, 2]))
    assert vectors == [(0, 2, 0), (0, 2, 1), (0, 2, 2), (1, 0, 0)] and truncated


@pytest.mark.parametrize(
    "dom, cod",
    [(TETRA, TORUS), (RELABELLED_TORUS, TORUS), (SPHERE7, TORUS), (SIGMA2, TORUS)],
    ids=["tetra-torus7", "relabelled-torus7", "sphere7-torus7", "sigma2_10v-torus7"],
)
def test_both_searches_agree_on_the_builders_arguments(dom, cod):
    kernel = search_of("compiled")
    args = analysis._search_args(analysis._prepare(dom, cod))
    rng = random.Random(2009)
    # sigma2_10v -> torus7 has 953,491 maps: budgeted only.
    for budget in (1, 7, 997) if dom is SIGMA2 else (1, 7, 997, -1):
        start = None
        for _ in range(4):  # each chunk resumes from a vector of the one before
            result = analysis._python_search(*args, budget, start)
            assert kernel(*args, budget, start) == result
            vectors, truncated = result
            assert not truncated or len(vectors) == budget
            if not vectors:
                break
            start = rng.choice(vectors)


@pytest.mark.parametrize(
    "override",
    [
        {"apex": [-1] * 9},  # m*m, the size of the former edge table
        {"apex": [-1] * 27},  # m**3, the size of the former facet table
        {"n": 4},
        {"m": -1},
        {"pair_off": [0, 0, 1]},
        {"pair_off": [1, 1, 1, 3]},
        {"pair_off": [0, 2, 1, 3]},
        {"pair_off": [0, 0, 1, 4]},
        {"pair_pos": [0, 0, 2]},
        {"pair_pos": [0, -1, 1]},
        {"pair_pos": [1, 0, 1]},
        {"tri_off": [0, 0, 2, 2]},
        {"tri_off": [0, 0, 1, 2]},
        {"tri_pos": [0, 3]},
        {"tri_off": [0, 0, 0, 3], "tri_pos": [0, 1, 1]},
        {"start": [0, 0]},
        {"start": [0, 0, 3]},
        {"start": [0, -1, 0]},
    ],
)
def test_kernel_rejects_malformed_tables(override):
    require_compiled()
    with pytest.raises(ValueError):
        analysis._kernel.search(**dict(KERNEL_ARGS, **override))


# ------------------------------------------------------ kernel interface


# Interface 1 is a kernel built while search() still took a bijective flag,
# interface 2 one that took edge and facet byte tables instead of apex.
@pytest.mark.parametrize("interface", [None, 1, 2, KERNEL_INTERFACE + 1, str(KERNEL_INTERFACE)])
def test_kernel_with_another_interface_is_rejected(interface):
    fake = types.ModuleType("surfacemaps._backtrack")
    fake.__file__ = "/elsewhere/_backtrack.cpython-311-x86_64-linux-gnu.so"
    if interface is not None:
        fake.INTERFACE = interface
    kernel, problem = analysis._load_kernel(fake)
    assert kernel is None
    assert fake.__file__ in problem and "stale" in problem
    fake.INTERFACE = KERNEL_INTERFACE
    assert analysis._load_kernel(fake) == (fake, "")
    assert analysis._load_kernel(None)[0] is None


def test_built_kernel_has_this_interface():
    require_compiled()
    assert analysis._kernel.INTERFACE == KERNEL_INTERFACE


def test_stale_kernel_in_package_falls_back_to_python(tmp_path):
    # A copy of the package whose _backtrack has no INTERFACE, as an extension
    # built from an older _backtrack.c would: it must count as not built.
    pkg = tmp_path / "surfacemaps"
    shutil.copytree(
        Path(analysis.__file__).parent, pkg, ignore=shutil.ignore_patterns("*.so", "*.pyd", "__pycache__")
    )
    stale = pkg / "_backtrack.py"
    stale.write_text("def search(*args, **kwargs):\n    raise AssertionError('stale kernel called')\n")
    script = (
        "from surfacemaps import analysis, torus7\n"
        "print(analysis.available_backends())\n"
        "print(len(analysis.enumerate_simplicial_maps(torus7(), torus7())))\n"
        "try:\n"
        "    analysis.enumerate_simplicial_maps(torus7(), torus7(), backend='compiled')\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120, check=True
    ).stdout.splitlines()
    assert out[0] == "('python',)"
    assert out[1] == str(fx.TORUS7_SELF_MAP_COUNT)
    assert str(stale) in out[2] and "python setup.py build_ext --inplace --force" in out[2]


# ------------------------------------------------------ bulk map building


@pytest.mark.parametrize("backend", ["python", "compiled"])
@pytest.mark.parametrize(
    "dom, cod",
    [(TETRA, TORUS), (RELABELLED_TORUS, TORUS), (SIGMA2, TORUS)],
    ids=["tetra-torus7", "relabelled-torus7", "sigma2_10v-torus7"],
)
def test_vectors_to_maps_matches_build(dom, cod, backend):
    if backend == "compiled":
        require_compiled()
    problem = analysis._prepare(dom, cod)
    # torus7 and the tetrahedron are vertex-transitive, so their search order
    # is label order; sigma2_10v's is not, which exercises the reordering.
    assert (problem.dom_order != dom.vertices) == (dom is SIGMA2)
    vectors, _ = search_of(backend)(*analysis._search_args(problem), 3000, None)
    maps = analysis._vectors_to_maps(problem, vectors)
    assert len(maps) == len(vectors) > 0
    for vector, f in zip(vectors, maps):
        assignment = {problem.dom_order[t]: problem.cod_order[c] for t, c in enumerate(vector)}
        built = SimplicialVertexMap.build(dom, cod, assignment)
        assert f == built
        assert list(f.assignment) == list(built.assignment) == list(dom.vertices)


@pytest.mark.parametrize(
    "vector",
    [(0, 1, 2), (0, 1, 2, 3, 4), (0, 1, -1, 3), (0, 1, 7, 3)],
    ids=["short", "long", "negative", "past-m"],
)
def test_vectors_to_maps_rejects_non_total_vectors(vector):
    problem = analysis._prepare(TETRA, TORUS)
    with pytest.raises(MapDefinitionError):
        analysis._vectors_to_maps(problem, [(0, 1, 2, 3), vector])


def test_budget_and_resume_chunking_reassembles_everything():
    caps = EnumerationCaps(max_maps=700)
    chunks: list[SimplicialVertexMap] = []
    token = None
    rounds = 0
    while True:
        try:
            chunks += enumerate_simplicial_maps(TORUS, TORUS, caps, resume_token=token)
            break
        except SearchCapExceeded as exc:
            assert exc.reason == "map-budget"
            assert len(exc.partial_maps) == 700
            chunks += exc.partial_maps
            token = exc.resume_token
            rounds += 1
    assert rounds == fx.TORUS7_SELF_MAP_COUNT // 700
    assert chunks == enumerate_simplicial_maps(TORUS, TORUS)


def test_resume_token_rejects_foreign_pair():
    caps = EnumerationCaps(max_maps=5)
    with pytest.raises(SearchCapExceeded) as exc:
        enumerate_simplicial_maps(TORUS, TORUS, caps)
    token = exc.value.resume_token
    with pytest.raises(ValueError):
        enumerate_simplicial_maps(TETRA, TETRA, resume_token=token)


@pytest.mark.parametrize("bad_vertex", ["v99", ["v1"]], ids=["unknown", "unhashable"])
def test_resume_token_rejects_vertices_outside_codomain(bad_vertex):
    caps = EnumerationCaps(max_maps=5)
    with pytest.raises(SearchCapExceeded) as exc:
        enumerate_simplicial_maps(TORUS, TORUS, caps)
    token = dict(exc.value.resume_token)
    token["last_assignment"] = [bad_vertex] + token["last_assignment"][1:]
    with pytest.raises(ValueError, match="resume token"):
        enumerate_simplicial_maps(TORUS, TORUS, caps, resume_token=token)


@pytest.mark.parametrize(
    "token",
    [["v1"], {"domain_order": 5}, {"domain_order": None, "codomain_order": None}, {}],
    ids=["not-a-mapping", "int-order", "none-orders", "empty"],
)
def test_resume_token_rejects_malformed_shapes(token):
    with pytest.raises(ValueError, match="resume token"):
        enumerate_simplicial_maps(TORUS, TORUS, resume_token=token)


def test_unknown_backend_rejected():
    for caps in [EnumerationCaps(), EnumerationCaps(bijective_only=True)]:
        with pytest.raises(ValueError):
            enumerate_simplicial_maps(TETRA, TETRA, caps, backend="gpu")


def test_compiled_backend_without_kernel_rejected(monkeypatch):
    monkeypatch.setattr(analysis, "_kernel", None)
    for caps in [EnumerationCaps(), EnumerationCaps(bijective_only=True)]:
        with pytest.raises(RuntimeError, match="build_ext --inplace --force"):
            enumerate_simplicial_maps(TETRA, TETRA, caps, backend="compiled")


# -------------------------------------------------------- automorphisms


def test_torus7_automorphism_group_order_and_degrees():
    autos = automorphisms(TORUS)
    assert len(autos) == 42
    assert {degree(f).degree for f in autos} == {1}


def test_torus7_automorphisms_match_paper_list():
    computed = {tuple(sorted(f.assignment.items())) for f in automorphisms(TORUS)}
    printed = {
        tuple(sorted(fx.parse_numeric_cycles(text).items()))
        for text in fx.TORUS7_AUTOMORPHISM_CYCLES
    }
    assert computed == printed


def test_tetrahedron_automorphisms_are_all_permutations():
    autos = automorphisms(TETRA)
    assert len(autos) == 24
    degs = sorted(degree(f).degree for f in autos)
    assert degs == [-1] * 12 + [1] * 12


def test_cycle_notation_forms():
    ident = next(f for f in automorphisms(TORUS) if all(v == w for v, w in f.assignment.items()))
    assert cycle_notation(ident) == "()"
    f = SimplicialVertexMap.build(
        TETRA, TETRA, {"v1": "v2", "v2": "v1", "v3": "v4", "v4": "v3"}
    )
    assert cycle_notation(f) == "(v1 v2)(v3 v4)"
    g = SimplicialVertexMap.build(
        TETRA, TETRA, {"v1": "v3", "v3": "v1", "v2": "v2", "v4": "v4"}
    )
    assert cycle_notation(g) == "(v1 v3)"


def test_cycle_notation_rejects_non_bijections():
    const = SimplicialVertexMap.build(TETRA, TETRA, {v: "v1" for v in TETRA.vertices})
    with pytest.raises(ValueError):
        cycle_notation(const)


# -------------------------------------------------------------- spectra


def test_torus7_self_spectrum():
    report = degree_spectrum(TORUS, TORUS)
    assert report.total_maps == fx.TORUS7_SELF_MAP_COUNT
    assert report.achievable_degrees == (0, 1)
    assert not report.partial
    for d, witness in report.witnesses.items():
        assert degree(witness).degree == d


def test_tetra_self_spectrum_has_both_signs():
    report = degree_spectrum(TETRA, TETRA)
    assert report.total_maps == fx.TETRA_SELF_MAP_COUNT
    assert report.achievable_degrees == (-1, 0, 1)


def test_partial_spectrum_carries_resume_token():
    caps = EnumerationCaps(max_maps=100)
    report = degree_spectrum(TORUS, TORUS, caps=caps)
    assert report.partial
    assert report.total_maps == 100
    assert report.resume_token is not None


def test_spectrum_resumes_from_its_token():
    caps = EnumerationCaps(max_maps=5000)
    total, witnesses, token = 0, {}, None
    while True:
        report = degree_spectrum(TORUS, TORUS, caps, resume_token=token)
        total += report.total_maps
        for d in report.achievable_degrees:
            witnesses.setdefault(d, report.witnesses[d])
        if not report.partial:
            break
        token = report.resume_token
    whole = degree_spectrum(TORUS, TORUS)
    assert total == whole.total_maps == fx.TORUS7_SELF_MAP_COUNT
    assert tuple(sorted(witnesses)) == whole.achievable_degrees
    assert witnesses == dict(whole.witnesses)
    with pytest.raises(ValueError, match="resume token"):
        degree_spectrum(TETRA, TETRA, caps, resume_token=token)


def test_spectrum_backends_agree():
    require_compiled()
    for dom, cod in [(TETRA, TETRA), (TETRA, TORUS), (TORUS, TORUS)]:
        a = degree_spectrum(dom, cod, backend="python")
        b = degree_spectrum(dom, cod, backend="compiled")
        assert a.achievable_degrees == b.achievable_degrees
        assert a.total_maps == b.total_maps
        assert {d: w.assignment for d, w in a.witnesses.items()} == {
            d: w.assignment for d, w in b.witnesses.items()
        }


def test_spectrum_checks_each_witness_once(monkeypatch):
    calls = []

    def counting(f):
        calls.append(f)
        return validate_simplicial(f)

    # The spectrum's own module may call it as well as maps.degree.
    monkeypatch.setattr(analysis, "validate_simplicial", counting, raising=False)
    monkeypatch.setattr(maps, "validate_simplicial", counting)
    report = degree_spectrum(TORUS, TORUS)
    assert len(report.witnesses) == 2 and len(calls) == 2


@pytest.mark.parametrize("case", ["rp2-torus7", "torus7-rp2", "sum_low(2,1)-rp2"])
def test_spectrum_refuses_a_non_orientable_surface_before_searching(monkeypatch, case):
    rp2 = TriangulatedSurface.from_facets(fx.RP2_6_FACETS)
    dom, cod = {
        "rp2-torus7": (rp2, TORUS),
        "torus7-rp2": (TORUS, rp2),
        "sum_low(2,1)-rp2": (build_sum_low(2, 1).surface, rp2),
    }[case]
    searches = []
    real = analysis._search_args
    monkeypatch.setattr(analysis, "_search_args", lambda problem: searches.append(problem) or real(problem))
    with pytest.raises(NonOrientableError):
        degree_spectrum(dom, cod, EnumerationCaps(11, 11), backend="python")
    assert searches == []


def test_spectrum_rejects_a_witness_the_tally_cannot_see_is_not_simplicial(monkeypatch):
    # Every facet of the tetrahedron lands degenerate, so the tally says
    # degree 0, but three of them land on v1v3, which is not an edge of SPHERE7.
    monkeypatch.setattr(analysis, "_python_search", lambda *args, **kwargs: ([(0, 0, 0, 2)], False))
    with pytest.raises(DegreeInconsistencyError, match="witness for degree 0 fails simpliciality re-check"):
        degree_spectrum(TETRA, SPHERE7, backend="python")


# --------------------------------------------------------------- bounds


def test_simplicial_volume_values():
    assert simplicial_volume(0) == 0
    assert simplicial_volume(1) == 0
    assert simplicial_volume(2) == 4
    assert simplicial_volume(3) == 8
    with pytest.raises(ValueError):
        simplicial_volume(-1)


def test_degree_bound_cases():
    assert degree_bound(2, 2) == DegreeRange("bounded", 1)
    assert degree_bound(3, 2) == DegreeRange("bounded", 2)
    assert degree_bound(5, 3) == DegreeRange("bounded", 2)
    assert degree_bound(2, 3) == DegreeRange("zero-only")
    for g1 in range(0, 5):
        assert degree_bound(g1, 1) == DegreeRange("zero-only" if g1 == 0 else "all-integers")
        assert degree_bound(g1, 0) == DegreeRange("all-integers")
    with pytest.raises(ValueError):
        degree_bound(-1, 2)


def test_degree_range_allows():
    assert degree_bound(2, 2).allows(1) and degree_bound(2, 2).allows(-1)
    assert degree_bound(2, 2).allows(0) and not degree_bound(2, 2).allows(2)
    assert degree_bound(2, 3).allows(0) and not degree_bound(2, 3).allows(1)
    assert degree_bound(4, 1).allows(-17)


def test_vertex_lower_bound_formula_and_refinement():
    b = vertex_lower_bound(2, 2)
    assert b.formula == 12 and b.refined == 13
    assert vertex_lower_bound(2, -2) == b
    assert vertex_lower_bound(1, 1).formula == 7
    assert vertex_lower_bound(3, 5).formula == 31
    with pytest.raises(ValueError):
        vertex_lower_bound(2, 0)
    with pytest.raises(ValueError):
        vertex_lower_bound(0, 1)
