"""Simplicial vertex maps between triangulated surfaces and their degree.

Degree is computed by signed counting of nondegenerate preimage facets.  For
a domain facet tau carrying sign s (relative to its ascending order) that
maps bijectively onto a codomain facet sigma, let eps be the parity of the
vertex correspondence read from tau's ascending order to sigma's ascending
order.  tau counts positively for sigma when s * eps = +1, negatively
otherwise, and alg(sigma) is positives minus negatives when sigma is a
positive facet of the codomain orientation, negatives minus positives when
it is negative.  For closed connected oriented surfaces alg is the same
integer for every sigma; that integer is the degree.  The convention is
invariant under re-ordering either facet's stored order, because both the
facet sign and the correspondence parity flip together.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from .surface import (
    InvalidSurfaceError,
    Triangle,
    TriangulatedSurface,
    ValidityReport,
    Vertex,
    Violation,
    apex_table,
    ascending,
    orient,
    require_valid,
    triple_parity,
)


class MapDefinitionError(ValueError):
    """Assignment is not a total vertex map between the two surfaces."""


class NotSimplicialError(ValueError):
    """Raised when an operation requires a simplicial map and the input fails the check."""


class DegreeInconsistencyError(RuntimeError):
    """alg values disagree across codomain facets.

    For valid closed connected oriented surfaces the signed preimage count
    is constant, so a disagreement means the inputs are corrupted; it is
    never averaged away.
    """


@dataclass(frozen=True)
class SimplicialVertexMap:
    """A total vertex assignment from domain vertices to codomain vertices.

    The assignment dict is treated as immutable; build() copies its input.
    Equality compares domain, codomain (including references) and the
    assignment.
    """

    domain: TriangulatedSurface
    codomain: TriangulatedSurface
    assignment: Mapping[Vertex, Vertex]

    @staticmethod
    def build(
        domain: TriangulatedSurface,
        codomain: TriangulatedSurface,
        assignment: Mapping[Vertex, Vertex],
    ) -> "SimplicialVertexMap":
        """Validate totality and build the map value.

        Raises MapDefinitionError if the assignment is not a total function
        from the domain vertex set into the codomain vertex set.  Keys are
        stored in sorted order so serialization is canonical.
        """
        dom = set(domain.vertices)
        missing = sorted(dom - set(assignment))
        if missing:
            raise MapDefinitionError(f"assignment is partial; unassigned vertices: {missing}")
        extra = sorted(set(assignment) - dom)
        if extra:
            raise MapDefinitionError(f"assignment has keys outside the domain: {extra}")
        cod = set(codomain.vertices)
        bad = sorted(v for v in dom if assignment[v] not in cod)
        if bad:
            raise MapDefinitionError(
                f"assignment sends {bad} outside the codomain vertex set"
            )
        ordered = {v: assignment[v] for v in domain.vertices}
        return SimplicialVertexMap(domain, codomain, ordered)

    def __call__(self, v: Vertex) -> Vertex:
        return self.assignment[v]

    def image_simplex(self, facet: Iterable[Vertex]) -> tuple[Vertex, ...]:
        """Image vertex set of a facet, ascending; length 1, 2 or 3."""
        return tuple(sorted({self.assignment[v] for v in facet}))


def identity_map(surface: TriangulatedSurface) -> SimplicialVertexMap:
    return SimplicialVertexMap.build(surface, surface, {v: v for v in surface.vertices})


def constant_map(
    domain: TriangulatedSurface, codomain: TriangulatedSurface, target: Vertex
) -> SimplicialVertexMap:
    return SimplicialVertexMap.build(domain, codomain, {v: target for v in domain.vertices})


def validate_simplicial(f: SimplicialVertexMap) -> ValidityReport:
    """Report every domain facet whose image vertex set is not a codomain simplex.

    A facet may legitimately collapse to an edge or a vertex; what it may
    not do is span a pair that is not an edge, or a triple that is not a
    facet, of the codomain.
    """
    require_valid(f.domain)
    require_valid(f.codomain)
    # Re-run totality checks so maps built via the raw constructor are still
    # rejected loudly rather than producing nonsense reports.
    SimplicialVertexMap.build(f.domain, f.codomain, f.assignment)
    apex = apex_table(f.codomain.facets)
    out: list[Violation] = []
    for facet in f.domain.facets:
        img = f.image_simplex(facet)
        if len(img) == 3 and img[2] not in apex.get(img[:2], ()):
            out.append(Violation("nonsimplicial_facet", f"facet {list(facet)} maps onto non-facet {list(img)}"))
        elif len(img) == 2 and img not in apex:
            out.append(Violation("nonsimplicial_facet", f"facet {list(facet)} maps onto non-edge {list(img)}"))
    return ValidityReport(tuple(out))


def is_simplicial(f: SimplicialVertexMap) -> bool:
    return validate_simplicial(f).ok


def require_simplicial(f: SimplicialVertexMap) -> None:
    report = validate_simplicial(f)
    if not report.ok:
        first = report.violations[0].detail
        raise NotSimplicialError(f"map is not simplicial ({len(report.violations)} facet(s)); first: {first}")


@dataclass(frozen=True)
class SignedPreimageCount:
    """Signed preimage tally for one codomain facet."""

    target: Triangle
    target_sign: int
    positive_count: int
    negative_count: int

    @property
    def alg(self) -> int:
        diff = self.positive_count - self.negative_count
        return diff if self.target_sign > 0 else -diff


@dataclass(frozen=True)
class DegreeReport:
    degree: int
    per_triangle: tuple[SignedPreimageCount, ...]
    degenerate_facets: int
    domain_reference: tuple[Vertex, Vertex, Vertex]
    codomain_reference: tuple[Vertex, Vertex, Vertex]

    @property
    def nondegenerate_facets(self) -> int:
        return sum(c.positive_count + c.negative_count for c in self.per_triangle)

    def count_for(self, target: Iterable[Vertex]) -> SignedPreimageCount:
        want = ascending(tuple(target))
        for c in self.per_triangle:
            if c.target == want:
                return c
        raise KeyError(f"{list(want)} is not a codomain facet")


def degree(f: SimplicialVertexMap) -> DegreeReport:
    """Signed preimage counts per codomain facet and the common alg value.

    Both surfaces must be valid, connected and orientable and the map must
    be simplicial.  Orientations are the ones propagated from each
    surface's positive reference, so the sign of the result is only
    meaningful relative to those references (both are recorded in the
    report).
    """
    require_simplicial(f)
    dom_or = orient(f.domain)
    cod_or = orient(f.codomain)

    pos: dict[Triangle, int] = {t: 0 for t in f.codomain.facets}
    neg: dict[Triangle, int] = {t: 0 for t in f.codomain.facets}
    degenerate = 0
    assignment = f.assignment
    for facet in f.domain.facets:
        a, b, c = (assignment[v] for v in facet)
        if a == b or a == c or b == c:
            degenerate += 1
            continue
        target = ascending((a, b, c))
        contribution = dom_or.signs[facet] * triple_parity((a, b, c))
        if contribution > 0:
            pos[target] += 1
        else:
            neg[target] += 1

    counts = tuple(
        SignedPreimageCount(t, cod_or.signs[t], pos[t], neg[t]) for t in f.codomain.facets
    )
    algs = {c.alg for c in counts}
    if len(algs) != 1:
        raise DegreeInconsistencyError(
            f"alg values disagree across codomain facets: {sorted(algs)}; inputs are not a "
            "closed oriented surface pair"
        )
    return DegreeReport(
        degree=algs.pop(),
        per_triangle=counts,
        degenerate_facets=degenerate,
        domain_reference=f.domain.default_reference(),
        codomain_reference=f.codomain.default_reference(),
    )


def compose(f: SimplicialVertexMap, g: SimplicialVertexMap) -> SimplicialVertexMap:
    """Composite g after f; requires f's codomain and g's domain to be the same surface.

    Sameness includes the positive reference: degree bookkeeping on the
    middle surface is only transitive when both maps use one orientation.
    """
    if f.codomain != g.domain:
        raise MapDefinitionError(
            "cannot compose: f's codomain and g's domain differ (complex or reference)"
        )
    return SimplicialVertexMap.build(
        f.domain, g.codomain, {v: g.assignment[f.assignment[v]] for v in f.domain.vertices}
    )


def reverse_orientation(surface: TriangulatedSurface) -> TriangulatedSurface:
    """Same complex with the positive reference transposed, flipping every facet sign.

    Swapping the first two reference vertices is an involution, so applying
    this twice restores the original ordered reference (materialising the
    lexicographic default if the input had none).
    """
    a, b, c = surface.default_reference()
    return replace(surface, positive_reference=(b, a, c))
