"""Triangulated closed surfaces: validity, orientation, Euler characteristic, genus.

A surface is stored combinatorially: a sorted tuple of vertex labels and a
sorted tuple of facets, each facet an ascending triple of labels.  Edges are
always derived from facets, never stored, so the two can not disagree.

One adjacency serves every algorithm here and in the map search:
apex_table, the apexes of each edge, read for edge degrees, links and
facet components, and facet_walk, which crosses it edge by edge from an
ordered facet to orient surfaces and propagate isomorphisms.

Orientation bookkeeping convention used throughout the package: a sign s for
a facet with ascending vertex order (a, b, c) means the facet's oriented
boundary is the directed cycle a->b->c->a when s = +1 and the reversed cycle
when s = -1.  A coherent orientation traverses every edge once in each
direction.  The optional positive reference is an ordered triple; its facet
receives, relative to ascending order, the parity of that ordering, which is
exactly the statement "the reference facet is positive in its reference
order".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Hashable, Iterable, Iterator, Mapping, Sequence, TypeVar

Vertex = str
# Ascending vertex triple; identity of a facet is its vertex set, and the
# ascending form is the canonical representative used as a dict key.
Triangle = tuple[Vertex, Vertex, Vertex]
Edge = tuple[Vertex, Vertex]
V = TypeVar("V", bound=Hashable)  # a vertex label, or a vertex index in the search tables


class InvalidSurfaceError(ValueError):
    """Raised when an operation requires a valid closed surface and the input is not one."""


class NonOrientableError(ValueError):
    """Raised when a coherent orientation is requested but none exists."""


def ascending(triple: Iterable[Vertex]) -> Triangle:
    """Canonical ascending form of a facet triple; entries must be distinct."""
    a, b, c = sorted(triple)
    if a == b or b == c:
        raise ValueError(f"triple {(a, b, c)!r} has repeated vertices")
    return (a, b, c)


def triple_parity(triple: tuple[Vertex, Vertex, Vertex]) -> int:
    """Parity (+1 even, -1 odd) of the permutation sorting the triple.

    The three entries must be distinct; comparisons are plain lexicographic
    label comparisons, matching the canonical vertex ordering.
    """
    a, b, c = triple
    inversions = (a > b) + (a > c) + (b > c)
    return -1 if inversions % 2 else 1


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


@dataclass(frozen=True)
class ValidityReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)


@dataclass(frozen=True)
class FVector:
    vertices: int
    edges: int
    facets: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.vertices, self.edges, self.facets)


@dataclass(frozen=True)
class TriangulatedSurface:
    """Immutable triangulated surface in canonical form.

    vertices: lexicographically sorted labels.
    facets: ascending triples, sorted lexicographically (duplicates are kept
        so the validator can report them).
    positive_reference: optional ordered triple singling out a positively
        oriented facet; the order matters and is allowed to be non-ascending
        (that is how orientation reversal is expressed).
    """

    vertices: tuple[Vertex, ...]
    facets: tuple[Triangle, ...]
    positive_reference: tuple[Vertex, Vertex, Vertex] | None = None

    @staticmethod
    def from_facets(
        facets: Iterable[Iterable[Vertex]],
        vertices: Iterable[Vertex] = (),
        positive_reference: Iterable[Vertex] | None = None,
    ) -> "TriangulatedSurface":
        """Build a surface from raw facet data, normalising to canonical form.

        Facet entries are sorted individually and the facet list is sorted;
        declared vertices are merged with the ones appearing in facets.  No
        validity checking happens here: validate_closed_surface accepts
        arbitrary data and reports problems instead of refusing to build.
        Only the positive reference is checked eagerly, since a reference
        that does not name a facet is a call-site bug, not a property of the
        complex.
        """
        norm_facets = tuple(sorted(tuple(sorted(f)) for f in facets))
        for f in norm_facets:
            if len(f) != 3:
                raise ValueError(f"facet {f!r} does not have 3 vertices")
        seen: set[Vertex] = set(vertices)
        for f in norm_facets:
            seen.update(f)
        ref: tuple[Vertex, Vertex, Vertex] | None = None
        if positive_reference is not None:
            r = tuple(positive_reference)
            if len(r) != 3 or len(set(r)) != 3:
                raise ValueError(f"positive reference {r!r} is not a triple of distinct vertices")
            if ascending(r) not in set(norm_facets):
                raise ValueError(f"positive reference {r!r} is not a facet of the surface")
            ref = r  # type: ignore[assignment]
        return TriangulatedSurface(tuple(sorted(seen)), norm_facets, ref)

    def with_reference(self, reference: Iterable[Vertex]) -> "TriangulatedSurface":
        r = tuple(reference)
        if len(r) != 3 or len(set(r)) != 3:
            raise ValueError(f"positive reference {r!r} is not a triple of distinct vertices")
        if ascending(r) not in self.facet_set():
            raise ValueError(f"positive reference {r!r} is not a facet of the surface")
        return replace(self, positive_reference=r)  # type: ignore[arg-type]

    def facet_set(self) -> frozenset[Triangle]:
        return frozenset(self.facets)

    def edges(self) -> tuple[Edge, ...]:
        """Distinct edges, each an ascending pair, sorted."""
        es: set[Edge] = set()
        for a, b, c in self.facets:
            es.add((a, b) if a < b else (b, a))
            es.add((a, c) if a < c else (c, a))
            es.add((b, c) if b < c else (c, b))
        return tuple(sorted(es))

    def relabel(self, mapping: Mapping[Vertex, Vertex]) -> "TriangulatedSurface":
        """Apply an injective vertex renaming, producing a new canonical surface."""
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("relabeling is not injective")
        missing = [v for v in self.vertices if v not in mapping]
        if missing:
            raise ValueError(f"relabeling is missing vertices: {missing}")
        new_ref = None
        if self.positive_reference is not None:
            new_ref = tuple(mapping[v] for v in self.positive_reference)
        return TriangulatedSurface.from_facets(
            (tuple(mapping[v] for v in f) for f in self.facets),
            vertices=(mapping[v] for v in self.vertices),
            positive_reference=new_ref,
        )

    def default_reference(self) -> Triangle:
        """The stored reference if any, else the lexicographically least facet ascending."""
        if self.positive_reference is not None:
            return self.positive_reference
        if not self.facets:
            raise ValueError("empty complex has no reference facet")
        return self.facets[0]


def apex_table(facets: Iterable[Sequence[V]]) -> dict[tuple[V, V], list[V]]:
    """apex[x, y] (one list, also stored as apex[y, x]) lists the apexes of edge xy.

    So (x, y) is a key exactly when xy is an edge, len(apex[x, y]) is the
    edge's facet degree (two on a closed surface), and z is in apex[x, y]
    exactly when xyz is a facet.  Works on labels and on index triples alike.
    """
    apex: dict[tuple[V, V], list[V]] = {}
    for a, b, c in facets:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            apexes = apex.get((x, y))
            if apexes is None:
                apex[x, y] = apex[y, x] = [z]
            else:
                apexes.append(z)
    return apex


def facet_walk(apex: Mapping[tuple[V, V], Sequence[V]], first: Sequence[V]) -> Iterator[tuple[V, V, V, V]]:
    """Walk a closed surface outward from the ordered facet first, one step per edge.

    A step (x, y, z, w) crosses edge xy from facet xyz to facet xyw, and
    queues xyw's other edges in the order y -> x -> w, so each step's
    (x, y, z) runs in the orientation propagated from first's order.
    """
    p, q, r = first
    queue, seen = [(p, q, r), (q, r, p), (r, p, q)], {(p, q), (q, r), (r, p)}
    for x, y, z in queue:
        a, b = apex[x, y]
        w = b if a == z else a
        yield x, y, z, w
        for u, v, t in ((x, w, y), (w, y, x)):
            if (u, v) not in seen and (v, u) not in seen:
                seen.add((u, v))
                queue.append((u, v, t))


def _facet_components(apex: Mapping[Edge, Sequence[Vertex]]) -> int:
    """Components of the facet adjacency graph, counted on edges: edge xy meets xz and yz for each apex z."""
    unseen = {e for e in apex if e[0] <= e[1]}
    count = 0
    while unseen:
        count += 1
        stack = [unseen.pop()]
        while stack:
            x, y = stack.pop()
            for z in apex[x, y]:
                for e in ((x, z) if x <= z else (z, x), (y, z) if y <= z else (z, y)):
                    if e in unseen:
                        unseen.remove(e)
                        stack.append(e)
    return count


@lru_cache(maxsize=None)
def validate_closed_surface(surface: TriangulatedSurface) -> ValidityReport:
    """Check the closed-surface conditions, reporting every violation as data.

    Conditions: there is at least one facet, facets are non-degenerate and
    unique, vertex declarations agree with facet usage, every edge lies in
    exactly two facets, every vertex link is a single cycle, and the facet
    adjacency graph is connected.  An empty report means the input is a
    closed connected surface (orientable or not).
    """
    out: list[Violation] = []
    if not surface.facets:
        out.append(Violation("no_facets", "the complex has no facets"))

    degenerate = [f for f in surface.facets if len(set(f)) != 3]
    for f in degenerate:
        out.append(Violation("degenerate_facet", f"facet {list(f)} has a repeated vertex"))

    for i in range(1, len(surface.facets)):
        if surface.facets[i] == surface.facets[i - 1]:
            out.append(Violation("duplicate_facet", f"facet {list(surface.facets[i])} occurs more than once"))

    declared = set(surface.vertices)
    used: set[Vertex] = set()
    for f in surface.facets:
        used.update(f)
    for v in sorted(used - declared):
        out.append(Violation("undeclared_vertex", f"vertex {v} appears in a facet but is not declared"))
    for v in sorted(declared - used):
        out.append(Violation("isolated_vertex", f"vertex {v} lies in no facet"))

    if degenerate or any(v.code == "duplicate_facet" for v in out):
        # Edge/link arithmetic on degenerate data produces noise, not insight.
        return ValidityReport(tuple(out))

    apex = apex_table(surface.facets)
    for x, y in sorted(e for e in apex if e[0] < e[1]):
        if len(apex[x, y]) != 2:
            out.append(Violation("edge_degree", f"edge {[x, y]} lies in {len(apex[x, y])} facet(s), expected 2"))

    # Link of v: the graph on v's neighbours w, joining w to each z in
    # apex[v, w].  A closed surface needs each link to be one simple cycle.
    neighbours: dict[Vertex, list[Vertex]] = {}
    for v, w in apex:
        neighbours.setdefault(v, []).append(w)
    for v in sorted(neighbours):
        ws = sorted(neighbours[v])
        bad = [w for w in ws if len(apex[v, w]) != 2]
        for w in bad:
            out.append(
                Violation("vertex_link", f"link of {v}: neighbour {w} has link-degree {len(apex[v, w])}, expected 2")
            )
        if bad:
            continue
        # Every link vertex has two neighbours: the link is one cycle when
        # the walk around it from ws[0] meets all of ws.
        prev, w, steps = ws[0], apex[v, ws[0]][0], 1
        while w != ws[0]:
            a, b = apex[v, w]
            prev, w, steps = w, b if a == prev else a, steps + 1
        if steps != len(ws):
            out.append(Violation("vertex_link", f"link of {v} is not a single cycle (disconnected)"))

    components = _facet_components(apex)
    if components > 1:
        out.append(Violation("disconnected", f"facet adjacency graph has {components} components"))

    return ValidityReport(tuple(out))


def require_valid(surface: TriangulatedSurface) -> None:
    report = validate_closed_surface(surface)
    if not report.ok:
        lines = "; ".join(str(v) for v in report.violations[:6])
        more = "" if len(report.violations) <= 6 else f" (+{len(report.violations) - 6} more)"
        raise InvalidSurfaceError(f"not a valid closed surface: {lines}{more}")


def connected_components(surface: TriangulatedSurface) -> int:
    """Number of components of the facet adjacency (dual) graph; empty complex -> 0."""
    return _facet_components(apex_table(surface.facets))


def f_vector(surface: TriangulatedSurface) -> FVector:
    require_valid(surface)
    return FVector(len(surface.vertices), len(surface.edges()), len(surface.facets))


def euler_characteristic(surface: TriangulatedSurface) -> int:
    fv = f_vector(surface)
    return fv.vertices - fv.edges + fv.facets


@dataclass(frozen=True, eq=False)
class Orientation:
    """Coherent facet signs relative to each facet's ascending vertex order.

    The reference triple is stored as ordered; its facet's sign equals the
    parity of that ordering, so the facet is positive when read in reference
    order.
    """

    reference: tuple[Vertex, Vertex, Vertex]
    signs: Mapping[Triangle, int] = field(repr=False)

    def sign(self, facet: Iterable[Vertex]) -> int:
        """Sign of a facet relative to ascending order (facet given in any order)."""
        t = tuple(facet)
        return self.signs[ascending(t)] * triple_parity(t)  # type: ignore[arg-type]


@lru_cache(maxsize=None)
def _orient_cached(surface: TriangulatedSurface, reference: tuple[Vertex, Vertex, Vertex]) -> Orientation:
    # A step's x -> y runs in the propagated orientation, so xyw runs y -> x -> w.
    signs = {ascending(reference): triple_parity(reference)}
    for x, y, _, w in facet_walk(apex_table(surface.facets), reference):
        facet, sign = ascending((x, y, w)), triple_parity((y, x, w))
        if signs.setdefault(facet, sign) != sign:
            raise NonOrientableError(
                f"facet {list(facet)} receives contradictory signs; no coherent orientation exists"
            )
    return Orientation(reference=reference, signs={f: signs[f] for f in surface.facets})


def orient(surface: TriangulatedSurface, reference: Iterable[Vertex] | None = None) -> Orientation:
    """Propagate a coherent orientation from the reference facet.

    Defaults to the surface's stored positive reference, falling back to the
    lexicographically least facet in ascending order.  Deterministic for a
    fixed reference; raises NonOrientableError when propagation around some
    dual cycle forces a contradiction, and InvalidSurfaceError, before
    picking a reference, when the surface is not a closed surface.
    """
    require_valid(surface)
    if reference is None:
        ref = surface.default_reference()
    else:
        ref = tuple(reference)  # type: ignore[assignment]
        if len(ref) != 3 or ascending(ref) not in surface.facet_set():
            raise ValueError(f"reference {ref!r} is not a facet of the surface")
    return _orient_cached(surface, ref)


def is_orientable(surface: TriangulatedSurface) -> bool:
    try:
        orient(surface)
    except NonOrientableError:
        return False
    return True


def genus(surface: TriangulatedSurface) -> int:
    """Genus of a valid, connected, orientable closed surface, from 2 - 2g = chi."""
    chi = euler_characteristic(surface)
    orient(surface)  # raises NonOrientableError on non-orientable input
    return (2 - chi) // 2
