"""Exhaustive search over simplicial vertex maps, degree spectra, and bounds.

The enumerator is a deterministic backtracking search: domain vertices are
ordered by decreasing facet degree (ties by label) and candidate images are
tried in codomain label order, so maps are emitted in a fixed lexicographic
order.  Pruning is exact, not heuristic: a partial assignment is extended
only while every fully-assigned domain edge lands on a codomain edge or a
single vertex, and every fully-assigned facet lands on a facet, an edge or
a vertex.  Both checks read the codomain's surface.apex_table, the two
apexes of each edge: ab is an edge when it has apexes, and abc is a facet
when c is one of them.  Two backends run the search on one argument list,
built by _search_args with that table flattened to 2*m*m ints: the compiled
C kernel (surfacemaps._backtrack.search) and the pure-Python reference
_python_search, which takes exactly the kernel's arguments and returns its
result; tests compare the two output for output.  The kernel is used only
when its INTERFACE number matches KERNEL_INTERFACE, so an extension left
over from an older build of _backtrack.c counts as not built.

Isomorphisms (bijective_only, and so automorphisms) are not searched
for: _isomorphism_vectors propagates flags along the domain's
surface.facet_walk and the codomain's apex table in O(F**2) for F facets
and emits them in the search's order.  Both paths
return plain index vectors (codomain index per DFS depth).  Only the
vectors a caller returns become SimplicialVertexMap values, and they are
built in bulk by _vectors_to_maps: the search orders are checked once per
sweep and each vector only for its length and index range, which gives
the same totality guarantee as SimplicialVertexMap.build.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Mapping, Sequence

from .maps import (
    DegreeInconsistencyError,
    MapDefinitionError,
    NotSimplicialError,
    SimplicialVertexMap,
    degree,
)
from .surface import TriangulatedSurface, Vertex, apex_table, facet_walk, orient, require_valid, triple_parity

# The argument list of _backtrack.search that this module passes; must equal
# INTERFACE in _backtrack.c, and both change whenever those arguments do.
KERNEL_INTERFACE = 3


def _load_kernel(module: Any) -> tuple[Any, str]:
    """(module, "") if module is a kernel built for KERNEL_INTERFACE, else (None, why not)."""
    if module is None:
        return None, "surfacemaps._backtrack is not built"
    found = getattr(module, "INTERFACE", None)
    if found != KERNEL_INTERFACE:
        where = getattr(module, "__file__", None) or module.__name__
        return None, f"{where} is stale: kernel interface {found!r}, expected {KERNEL_INTERFACE}"
    return module, ""


try:  # compiled kernel is optional; the build marks it best-effort
    from . import _backtrack  # type: ignore[attr-defined]
except ImportError:  # pragma: no cover - depends on build environment
    _backtrack = None
_kernel, _kernel_problem = _load_kernel(_backtrack)

ENV_CAPS_VAR = "SURFACE_DEGREE_CAPS"


class SearchCapExceeded(RuntimeError):
    """Search refused to start or stopped early because a cap was reached.

    reason is "vertex-guard" (surface too large for full enumeration) or
    "map-budget" (max_maps emitted with candidates remaining).  For the
    map-budget case, partial_maps holds everything emitted so far and
    resume_token re-starts the search right after the last emitted map.
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str,
        partial_maps: tuple[SimplicialVertexMap, ...] = (),
        resume_token: dict[str, Any] | None = None,
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.partial_maps = partial_maps
        self.resume_token = resume_token


@dataclass(frozen=True)
class EnumerationCaps:
    """Limits for the enumeration; the defaults allow 10x10 full search.

    The raw candidate space grows as |V_codomain| ** |V_domain|.  Only
    bijective_only (isomorphisms, found by flag propagation in O(F**2)) is
    exempt from the vertex caps.  max_maps bounds
    the number of emitted maps per call; None means unlimited, and a budget
    below 1 is rejected because it could never advance a resumed sweep.
    """

    max_domain_vertices: int = 10
    max_codomain_vertices: int = 10
    max_maps: int | None = None
    bijective_only: bool = False

    def __post_init__(self) -> None:
        if self.max_maps is not None and self.max_maps < 1:
            raise ValueError(f"max_maps must be at least 1 or None, got {self.max_maps}")

    @staticmethod
    def parse(text: str) -> "EnumerationCaps":
        """Parse "AxB", "AxB:M", ":M" or "A" (both vertex caps set to A)."""
        base = EnumerationCaps()
        text = text.strip()
        if not text:
            raise ValueError("empty caps string")
        try:
            if ":" in text:
                dims, _, budget = text.partition(":")
                budget_val: int | None = int(budget)
            else:
                dims, budget_val = text, base.max_maps
            if dims:
                if "x" in dims:
                    a, _, b = dims.partition("x")
                    dom, cod = int(a), int(b)
                else:
                    dom = cod = int(dims)
            else:
                dom, cod = base.max_domain_vertices, base.max_codomain_vertices
        except ValueError:
            raise ValueError(
                f"bad caps string {text!r}; expected forms: '12', '12x14', '12x14:50000', ':50000'"
            ) from None
        return EnumerationCaps(max_domain_vertices=dom, max_codomain_vertices=cod, max_maps=budget_val)

    @staticmethod
    def default() -> "EnumerationCaps":
        text = os.environ.get(ENV_CAPS_VAR)
        if text:
            return EnumerationCaps.parse(text)
        return EnumerationCaps()


@dataclass(frozen=True)
class _SearchProblem:
    """Precomputed index tables for one (domain, codomain) pair."""

    domain: TriangulatedSurface
    codomain: TriangulatedSurface
    dom_order: tuple[Vertex, ...]  # DFS depth -> domain vertex
    cod_order: tuple[Vertex, ...]  # image index -> codomain vertex (label order)
    dom_facets: tuple[tuple[int, ...], ...]  # domain.facets by DFS position, in stored order
    cod_facets: tuple[tuple[int, ...], ...]  # codomain.facets by image index, ascending
    cod_apex: dict[tuple[int, int], list[int]]  # surface.apex_table of cod_facets


def _prepare(domain: TriangulatedSurface, codomain: TriangulatedSurface) -> _SearchProblem:
    require_valid(domain)
    require_valid(codomain)
    facet_degree = Counter(v for f in domain.facets for v in f)
    dom_order = tuple(sorted(domain.vertices, key=lambda v: (-facet_degree[v], v)))
    pos = {v: i for i, v in enumerate(dom_order)}
    cod_order = tuple(codomain.vertices)
    cod_index = {v: i for i, v in enumerate(cod_order)}
    cod_facets = tuple(tuple(sorted(cod_index[v] for v in f)) for f in codomain.facets)
    return _SearchProblem(
        domain=domain,
        codomain=codomain,
        dom_order=dom_order,
        cod_order=cod_order,
        dom_facets=tuple(tuple(pos[v] for v in f) for f in domain.facets),
        cod_facets=cod_facets,
        cod_apex=apex_table(cod_facets),
    )


def _search_args(problem: _SearchProblem) -> tuple[Any, ...]:
    """(n, m, pair_off, pair_pos, tri_off, tri_pos, apex): the search as both backends take it.

    Depth t checks the earlier positions pair_pos[pair_off[t]:pair_off[t+1]] (sharing an edge
    with t) and the earlier pairs in tri_pos[tri_off[t]:tri_off[t+1]] (completing a facet at t),
    both ascending.  apex holds the two apexes of codomain edge ab at 2*(a*m + b) and the next
    place, and -1 at both when ab is not an edge.
    """
    n, m = len(problem.dom_order), len(problem.cod_order)
    pairs: list[set[int]] = [set() for _ in range(n)]
    triples: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for f in problem.dom_facets:
        i, j, k = sorted(f)
        pairs[j].add(i)
        pairs[k].update((i, j))
        triples[k].append((i, j))
    pair_off = [0, *itertools.accumulate(map(len, pairs))]
    tri_off = [0, *itertools.accumulate(2 * len(t) for t in triples)]
    apex = [-1] * (2 * m * m)
    for (a, b), apexes in problem.cod_apex.items():
        apex[2 * (a * m + b) : 2 * (a * m + b + 1)] = apexes
    pair_pos = [s for p in pairs for s in sorted(p)]
    tri_pos = [s for t in triples for pair in sorted(t) for s in pair]
    return n, m, pair_off, pair_pos, tri_off, tri_pos, apex


def _python_search(
    n: int, m: int, pair_off: Sequence[int], pair_pos: Sequence[int], tri_off: Sequence[int],
    tri_pos: Sequence[int], apex: Sequence[int], max_maps: int, start: Sequence[int] | None,
) -> tuple[list[tuple[int, ...]], bool]:
    """Reference search, with _backtrack.search's arguments, conventions and result.

    Returns (vectors, truncated): assignments indexed by DFS position, in
    lexicographic order, and whether max_maps of them (max_maps < 0: no
    budget) were emitted with candidates remaining.  With a start vector only
    vectors strictly greater than it are emitted.  Unlike the kernel it
    trusts its tables.
    """
    pair_checks = [pair_pos[pair_off[t] : pair_off[t + 1]] for t in range(n)]
    triple_checks = [[tri_pos[i : i + 2] for i in range(tri_off[t], tri_off[t + 1], 2)] for t in range(n)]
    out: list[tuple[int, ...]] = []
    assign = [0] * n
    truncated = False

    def admissible(t: int, c: int) -> bool:
        for s in pair_checks[t]:
            a = assign[s]
            if a != c and apex[2 * (a * m + c)] < 0:
                return False
        for s1, s2 in triple_checks[t]:
            a, b = assign[s1], assign[s2]
            i = 2 * (a * m + b)
            if a != b and a != c and b != c and apex[i] != c and apex[i + 1] != c:
                return False
        return True

    def dfs(t: int, on_prefix: bool) -> bool:
        nonlocal truncated
        if t == n:
            if on_prefix:  # exactly the start vector: already emitted last run
                return True
            if 0 <= max_maps <= len(out):
                truncated = True
                return False
            out.append(tuple(assign))
            return True
        for c in range(start[t] if on_prefix else 0, m):
            if not admissible(t, c):
                continue
            assign[t] = c
            if not dfs(t + 1, on_prefix and c == start[t]):
                return False
        return True

    try:
        dfs(0, start is not None)
    finally:
        # dfs refers to itself through its closure cell; unbinding it breaks
        # that cycle so out is freed by refcounting, not by a later full GC.
        del dfs
    return out, truncated


def available_backends() -> tuple[str, ...]:
    return ("compiled", "python") if _kernel is not None else ("python",)


def _isomorphism_vectors(problem: _SearchProblem) -> list[tuple[int, ...]]:
    """Every isomorphism from domain to codomain, as sorted DFS-position vectors.

    Each of the 6F ordered codomain facets is tried as the image of the first
    domain facet; that fixes the image of the apex across each edge in turn,
    and the domain is connected.  A candidate is dropped once a vertex meets
    one of another facet degree or gets two images, and kept only when it is
    injective and maps every facet onto a codomain facet: with equal facet
    counts its image facets are then exactly the codomain's, which makes its
    inverse simplicial too.  Sorted is the search's emission order.
    """
    n = len(problem.dom_order)
    dom_facets, cod_apex = problem.dom_facets, problem.cod_apex
    if n != len(problem.cod_order) or len(dom_facets) != len(problem.cod_facets):
        return []
    dom_apex = apex_table(dom_facets)
    # On a closed surface a vertex lies on as many facets as edges.
    dom_degree, cod_degree = Counter(x for x, _ in dom_apex), Counter(x for x, _ in cod_apex)
    # x, y and z have images when a step runs, and it sets or checks w's.
    first = dom_facets[0]
    p, q, r = first
    steps = list(facet_walk(dom_apex, first))
    found = []
    for flag in itertools.chain.from_iterable(map(itertools.permutations, problem.cod_facets)):
        if [dom_degree[t] for t in first] != [cod_degree[c] for c in flag]:
            continue
        image = [-1] * n
        image[p], image[q], image[r] = flag
        for x, y, z, w in steps:
            c = sum(cod_apex[image[x], image[y]]) - image[z]
            if image[w] < 0 and dom_degree[w] == cod_degree[c]:
                image[w] = c
            elif image[w] != c:
                break
        else:
            if len(set(image)) == n and all(
                image[c] in cod_apex.get((image[a], image[b]), ()) for a, b, c in dom_facets
            ):
                found.append(tuple(image))
    return sorted(found)


def _vectors_to_maps(
    problem: _SearchProblem, vectors: Sequence[tuple[int, ...]]
) -> list[SimplicialVertexMap]:
    """Map values for search vectors, with build()'s totality guarantee checked in bulk.

    Once per call: dom_order must be a permutation of the domain's vertices
    and cod_order the codomain's vertices in order.  Once per vector: n
    entries, each in [0, m).  Together these make every map total into the
    codomain, which is all build() checks.  Keys follow domain.vertices, as
    build() stores them.  Anything else raises MapDefinitionError.
    """
    domain, codomain = problem.domain, problem.codomain
    n, m = len(problem.dom_order), len(problem.cod_order)
    if sorted(problem.dom_order) != sorted(domain.vertices) or len(set(problem.dom_order)) != n:
        raise MapDefinitionError("search order is not a permutation of the domain's vertices")
    if problem.cod_order != tuple(codomain.vertices):
        raise MapDefinitionError("image order is not the codomain's vertex order")
    if vectors and (
        set(map(len, vectors)) != {n} or min(map(min, vectors)) < 0 or max(map(max, vectors)) >= m
    ):
        bad = next(v for v in vectors if len(v) != n or not all(0 <= c < m for c in v))
        raise MapDefinitionError(
            f"search vector {bad!r} is not a total map: it needs {n} entries in [0, {m})"
        )
    depth = {v: t for t, v in enumerate(problem.dom_order)}
    # Valid surfaces have at least four vertices, so the getter returns tuples.
    by_vertex = itemgetter(*(depth[v] for v in domain.vertices))
    label = problem.cod_order.__getitem__
    keys = domain.vertices
    return [
        SimplicialVertexMap(domain, codomain, dict(zip(keys, map(label, by_vertex(v)))))
        for v in vectors
    ]


def _resume_vector(problem: _SearchProblem, token: Mapping[str, Any]) -> tuple[int, ...]:
    if not isinstance(token, Mapping):
        raise ValueError("resume token must be a mapping")
    dom, cod = token.get("domain_order"), token.get("codomain_order")
    if not isinstance(dom, (list, tuple)) or not isinstance(cod, (list, tuple)):
        raise ValueError("resume token lacks its domain_order/codomain_order lists")
    if tuple(dom) != problem.dom_order or tuple(cod) != problem.cod_order:
        raise ValueError("resume token does not belong to this domain/codomain pair")
    cod_index = {v: i for i, v in enumerate(problem.cod_order)}
    last = token.get("last_assignment")
    if not isinstance(last, (list, tuple)) or len(last) != len(problem.dom_order):
        raise ValueError("resume token has a malformed last_assignment")
    try:
        return tuple(cod_index[v] for v in last)
    except (KeyError, TypeError):
        raise ValueError("resume token assigns a vertex outside the codomain") from None


def _make_token(problem: _SearchProblem, vector: tuple[int, ...]) -> dict[str, Any]:
    return {
        "domain_order": list(problem.dom_order),
        "codomain_order": list(problem.cod_order),
        "last_assignment": [problem.cod_order[c] for c in vector],
    }


def _sweep(
    domain: TriangulatedSurface,
    codomain: TriangulatedSurface,
    caps: EnumerationCaps | None,
    backend: str,
    resume_token: Mapping[str, Any] | None = None,
) -> tuple[_SearchProblem, EnumerationCaps, list[tuple[int, ...]], bool, dict[str, Any] | None]:
    """Run one guarded search.  Returns (problem, caps, vectors, truncated, token).

    caps None means EnumerationCaps.default().  The token is set only when
    the budget truncated the search (which needs max_maps >= 1 vectors
    emitted); it resumes right after the last one.
    """
    caps = caps or EnumerationCaps.default()
    problem = _prepare(domain, codomain)
    n, m = len(problem.dom_order), len(problem.cod_order)
    if not caps.bijective_only and (n > caps.max_domain_vertices or m > caps.max_codomain_vertices):
        raise SearchCapExceeded(
            f"full enumeration refused for {n}x{m} vertices (caps "
            f"{caps.max_domain_vertices}x{caps.max_codomain_vertices}); raise the caps with "
            f"--caps on the command line, the caps argument, or {ENV_CAPS_VAR}",
            reason="vertex-guard",
        )
    start = None if resume_token is None else _resume_vector(problem, resume_token)
    backend = available_backends()[0] if backend == "auto" else backend
    if backend not in ("compiled", "python"):
        raise ValueError(f"unknown backend {backend!r}; expected 'auto', 'compiled' or 'python'")
    if backend not in available_backends():
        raise RuntimeError(
            f"compiled backend requested but unavailable ({_kernel_problem}); "
            "build it with `python setup.py build_ext --inplace --force`"
        )
    if caps.bijective_only:  # served with the search's budget and resume semantics
        vectors = [v for v in _isomorphism_vectors(problem) if start is None or v > start]
        truncated = caps.max_maps is not None and len(vectors) > caps.max_maps
        vectors = vectors[: caps.max_maps]
    else:
        search = _kernel.search if backend == "compiled" else _python_search
        budget = -1 if caps.max_maps is None else caps.max_maps
        vectors, truncated = search(*_search_args(problem), budget, start)
    token = _make_token(problem, vectors[-1]) if truncated else None
    return problem, caps, vectors, truncated, token


def enumerate_simplicial_maps(
    domain: TriangulatedSurface,
    codomain: TriangulatedSurface,
    caps: EnumerationCaps | None = None,
    resume_token: Mapping[str, Any] | None = None,
    backend: str = "auto",
) -> list[SimplicialVertexMap]:
    """Every total simplicial vertex map from domain to codomain, exactly once.

    Deterministic order (see module docstring).  Raises SearchCapExceeded
    when the surfaces exceed the vertex caps for a non-bijective search, or
    when max_maps maps were emitted with candidates remaining; in the
    latter case the exception carries the partial list and a resume token
    that continues the enumeration right after the last emitted map.
    """
    problem, caps, vectors, truncated, token = _sweep(domain, codomain, caps, backend, resume_token)
    maps = _vectors_to_maps(problem, vectors)
    if truncated:
        raise SearchCapExceeded(
            f"map budget of {caps.max_maps} reached with candidates remaining",
            reason="map-budget",
            partial_maps=tuple(maps),
            resume_token=token,
        )
    return maps


def automorphisms(surface: TriangulatedSurface) -> list[SimplicialVertexMap]:
    """All bijective simplicial self-maps whose inverse is also simplicial.

    Computed by flag propagation (_isomorphism_vectors), in O(F**2) for F
    facets and exempt from the vertex guard; the image facets of each map
    are checked to be exactly the surface's facets, which makes the inverse
    simplicial.  Listed in the search's emission order.
    """
    problem, _, vectors, _, _ = _sweep(surface, surface, EnumerationCaps(bijective_only=True), "auto")
    return _vectors_to_maps(problem, vectors)


def cycle_notation(f: SimplicialVertexMap) -> str:
    """Canonical cycle string for a bijective self-map, fixed points omitted.

    Cycles are rotated to start at their least vertex and listed in order
    of those leaders; the identity renders as "()".
    """
    if set(f.domain.vertices) != set(f.codomain.vertices):
        raise ValueError("cycle notation needs a self-map")
    if set(f.assignment.values()) != set(f.domain.vertices):
        raise ValueError("cycle notation needs a bijective map")
    seen: set[Vertex] = set()
    cycles: list[list[Vertex]] = []
    for v in f.domain.vertices:
        if v in seen:
            continue
        cycle = [v]
        seen.add(v)
        w = f.assignment[v]
        while w != v:
            cycle.append(w)
            seen.add(w)
            w = f.assignment[w]
        if len(cycle) > 1:
            cycles.append(cycle)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(c) + ")" for c in cycles)


@dataclass(frozen=True)
class SpectrumReport:
    """Achievable degrees with one witness map per degree."""

    domain_summary: str
    codomain_summary: str
    total_maps: int
    achievable_degrees: tuple[int, ...]
    witnesses: Mapping[int, SimplicialVertexMap] = field(repr=False)
    caps: EnumerationCaps = field(default_factory=EnumerationCaps)
    partial: bool = False
    resume_token: dict[str, Any] | None = None


def _surface_summary(surface: TriangulatedSurface) -> str:
    ref = surface.default_reference()
    return f"{len(surface.vertices)} vertices, {len(surface.facets)} facets, reference [{', '.join(ref)}]"


def _bulk_degree_tables(problem: _SearchProblem):
    """Index-space tables for the per-vector degree tally: each domain facet's DFS
    positions and sign, and oriented[a, b, c] for every order of every codomain
    facet: its facet id, and its sign times the order's parity."""
    dom_or = orient(problem.domain)
    cod_or = orient(problem.codomain)
    dom_facets = tuple(
        (*f, dom_or.signs[label]) for f, label in zip(problem.dom_facets, problem.domain.facets)
    )
    oriented = {
        order: (fid, cod_or.signs[label] * triple_parity(order))
        for fid, (f, label) in enumerate(zip(problem.cod_facets, problem.codomain.facets))
        for order in itertools.permutations(f)
    }
    return dom_facets, oriented, len(problem.cod_facets)


def _vector_degree(vector, dom_facets, oriented, n_facets) -> int:
    alg = [0] * n_facets
    for p1, p2, p3, s in dom_facets:
        a, b, c = vector[p1], vector[p2], vector[p3]
        if a == b or a == c or b == c:
            continue
        fid, sign = oriented[a, b, c]  # a non-facet image raises KeyError
        alg[fid] += s * sign
    algs = set(alg)
    if len(algs) != 1:
        raise DegreeInconsistencyError(f"alg values disagree in bulk tally: {sorted(algs)}")
    return algs.pop()


def degree_spectrum(
    domain: TriangulatedSurface,
    codomain: TriangulatedSurface,
    caps: EnumerationCaps | None = None,
    backend: str = "auto",
    resume_token: Mapping[str, Any] | None = None,
) -> SpectrumReport:
    """Enumerate all simplicial maps and aggregate the achievable degrees.

    After the sweep, a lean index-space tally gives each map's degree; each
    witness's degree is then re-derived through the full report machinery,
    and a mismatch is a bug and raises.  When the map budget interrupts the
    sweep the report is flagged partial and carries the resume token;
    passing it back as resume_token continues the sweep after the last map
    counted, so the chunks' totals add up to one unbudgeted run.  Both
    surfaces are validated, then oriented, before any search.
    """
    for s in (domain, codomain):
        require_valid(s)
    for s in (domain, codomain):
        orient(s)
    problem, caps, vectors, truncated, token = _sweep(domain, codomain, caps, backend, resume_token)
    tables = _bulk_degree_tables(problem)
    witnesses_vec: dict[int, tuple[int, ...]] = {}
    for vec in vectors:
        d = _vector_degree(vec, *tables)
        if d not in witnesses_vec:
            witnesses_vec[d] = vec

    degrees = sorted(witnesses_vec)
    witnesses: dict[int, SimplicialVertexMap] = {}
    for d, w in zip(degrees, _vectors_to_maps(problem, [witnesses_vec[d] for d in degrees])):
        try:
            full = degree(w)  # re-checks simpliciality first
        except NotSimplicialError as exc:
            raise DegreeInconsistencyError(f"witness for degree {d} fails simpliciality re-check") from exc
        if full.degree != d:
            raise DegreeInconsistencyError(
                f"bulk tally said degree {d} but the full report says {full.degree}"
            )
        witnesses[d] = w
    return SpectrumReport(
        domain_summary=_surface_summary(domain),
        codomain_summary=_surface_summary(codomain),
        total_maps=len(vectors),
        achievable_degrees=tuple(sorted(witnesses)),
        witnesses=witnesses,
        caps=caps,
        partial=truncated,
        resume_token=token,
    )


def simplicial_volume(g: int) -> int:
    """Simplicial volume of the closed orientable genus-g surface: 0, 0, then 4g-4."""
    if g < 0:
        raise ValueError("genus must be non-negative")
    return 0 if g <= 1 else 4 * g - 4


@dataclass(frozen=True)
class DegreeRange:
    """Degrees allowed by the simplicial-volume comparison for maps genus g1 -> g2."""

    kind: str  # "all-integers" | "bounded" | "zero-only"
    bound: int | None = None

    def allows(self, d: int) -> bool:
        if self.kind == "all-integers":
            return True
        if self.kind == "zero-only":
            return d == 0
        assert self.bound is not None
        return abs(d) <= self.bound


def degree_bound(g1: int, g2: int) -> DegreeRange:
    """Degree constraint for maps from genus g1 to genus g2.

    A strictly higher-genus target forces degree 0, since a map of nonzero
    degree is injective on rational first cohomology; so every map from
    the sphere to the torus has degree 0 (it lifts to the plane).  Other
    targets of genus 0 or 1 have vanishing simplicial volume, so every
    degree is allowed; for hyperbolic targets |d| * (4*g2-4) <= 4*g1-4.
    """
    if g1 < 0 or g2 < 0:
        raise ValueError("genus must be non-negative")
    if g1 < g2:
        return DegreeRange("zero-only")
    if g2 <= 1:
        return DegreeRange("all-integers")
    return DegreeRange("bounded", (g1 - 1) // (g2 - 1))


@dataclass(frozen=True)
class VertexBound:
    """Vertex lower bound for a genus-g domain with a degree-d map onto torus7.

    formula is 7|d|+2-2g; refined additionally applies the hand-proved
    13-vertex bound at (g, |d|) = (2, 2).
    """

    formula: int
    refined: int


def vertex_lower_bound(g: int, d: int) -> VertexBound:
    if g < 1:
        raise ValueError("genus must be >= 1")
    if d == 0:
        raise ValueError("the bound argument needs a surjective map; d must be nonzero")
    formula = 7 * abs(d) + 2 - 2 * g
    refined = 13 if (g, abs(d)) == (2, 2) else formula
    return VertexBound(formula=formula, refined=refined)
