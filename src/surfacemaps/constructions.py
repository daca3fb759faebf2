"""Builders for the degree-d map constructions onto the 7-vertex torus.

Every construction emits a triangulated genus-g surface with a vertex map
onto torus7 and a degree report, and construct certifies each result once:
the closed-surface conditions, the genus, the exact vertex count (the facet
count follows from V and g) and the degree, so a transcription slip in any
table below fails loudly instead of producing a plausible-looking wrong
complex.

One table, _VARIANTS, holds every variant once: its applicability rule on
(g, |d|), the vertex count its formula promises, and its builder, which
returns the uncertified (surface, assignment) of the degree-|d| map; the
towers call the builders below them directly.  recipe_for reads the table
(the automatic choice is the applicable variant with the fewest vertices)
and construct builds through it.  The public build_* are construct with a
fixed variant.

Vertex labels follow the u_ROW_COLUMN scheme ("u_3_2"), with primed rows
("u_3'_2") for the two vertices created by edge-insertion subdivision.
Primed vertices only exist on intermediate complexes: the connected-sum
step renames them onto the labels of the facet they are glued to.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple

from .maps import (
    DegreeReport,
    SimplicialVertexMap,
    degree,
    reverse_orientation,
)
from .surface import (
    Triangle,
    TriangulatedSurface,
    Vertex,
    ascending,
    genus,
    orient,
    triple_parity,
    validate_closed_surface,
)


class CertificationError(RuntimeError):
    """A builder's output failed its own invariant check."""


class GluingError(ValueError):
    """A connected-sum gluing is rejected (bad bijection or orientation clash)."""


class VariantError(ValueError):
    """Requested construction parameters violate a variant's applicability rule."""


@dataclass(frozen=True)
class ConstructionRecipe:
    variant: str
    genus: int
    degree: int
    expected_vertices: int


class ConstructionResult(NamedTuple):
    surface: TriangulatedSurface
    vertex_map: SimplicialVertexMap
    report: DegreeReport
    recipe: ConstructionRecipe


_Built = tuple[TriangulatedSurface, dict[Vertex, Vertex]]  # a builder's uncertified (surface, assignment)


# ---------------------------------------------------------------------------
# Fixed fixtures
# ---------------------------------------------------------------------------

_TORUS7_FACETS: tuple[tuple[str, str, str], ...] = (
    ("v1", "v2", "v4"),
    ("v2", "v4", "v5"),
    ("v2", "v3", "v5"),
    ("v3", "v5", "v6"),
    ("v1", "v5", "v6"),
    ("v1", "v2", "v6"),
    ("v2", "v6", "v7"),
    ("v2", "v3", "v7"),
    ("v1", "v3", "v7"),
    ("v1", "v5", "v7"),
    ("v4", "v5", "v7"),
    ("v4", "v6", "v7"),
    ("v3", "v4", "v6"),
    ("v1", "v3", "v4"),
)


@lru_cache(maxsize=None)
def torus7() -> TriangulatedSurface:
    """The unique 7-vertex triangulation of the torus, [v1,v2,v4] positive."""
    return TriangulatedSurface.from_facets(_TORUS7_FACETS, positive_reference=("v1", "v2", "v4"))


@lru_cache(maxsize=None)
def tetrahedron() -> TriangulatedSurface:
    """Boundary of the 3-simplex: the 4-vertex sphere."""
    return TriangulatedSurface.from_facets(
        [("v1", "v2", "v3"), ("v1", "v2", "v4"), ("v1", "v3", "v4"), ("v2", "v3", "v4")],
        positive_reference=("v1", "v2", "v3"),
    )


# ---------------------------------------------------------------------------
# The quadrilateral template
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadPatchSlots:
    """Vertex labels for one fundamental-square patch, 14 slots.

    Corners bl/br/tl/tr; bottom edge interior b1, b2 (left to right); top
    t1, t2; left l1, l2 and right r1, r2 (bottom to top); two interior
    vertices m_low, m_high.  Slots may repeat labels to express gluing, as
    long as no single emitted facet collapses.
    """

    bl: Vertex
    b1: Vertex
    b2: Vertex
    br: Vertex
    l1: Vertex
    l2: Vertex
    tl: Vertex
    t1: Vertex
    t2: Vertex
    tr: Vertex
    r1: Vertex
    r2: Vertex
    m_low: Vertex
    m_high: Vertex


# Template facets in slot space.  Instantiated with the torus
# identifications (corners = v1, b1=t1=v2, b2=t2=v3, l1=r1=v5, l2=r2=v4,
# m_low=v7, m_high=v6) this list reproduces the torus7 facet list exactly;
# a unit test pins that correspondence.
_QUAD_TEMPLATE: tuple[tuple[str, str, str], ...] = (
    ("bl", "b1", "m_high"),
    ("b1", "b2", "m_low"),
    ("b1", "m_low", "m_high"),
    ("b2", "br", "m_low"),
    ("br", "r1", "m_low"),
    ("r1", "r2", "m_low"),
    ("r2", "m_low", "m_high"),
    ("r2", "m_high", "t2"),
    ("t2", "tr", "r2"),
    ("t1", "t2", "l1"),
    ("tl", "t1", "l2"),
    ("t1", "l2", "l1"),
    ("t2", "l1", "m_high"),
    ("l1", "m_high", "bl"),
)


def quad_patch(slots: QuadPatchSlots) -> tuple[Triangle, ...]:
    """Instantiate the 14-facet square template with the given slot labels.

    Raises GluingError naming the colliding slots if an identification
    collapses one of the template facets.
    """
    out: list[Triangle] = []
    for slot_triple in _QUAD_TEMPLATE:
        labels = tuple(getattr(slots, s) for s in slot_triple)
        for a in range(3):
            for b in range(a + 1, 3):
                if labels[a] == labels[b]:
                    raise GluingError(
                        f"slots {slot_triple[a]} and {slot_triple[b]} share label "
                        f"{labels[a]!r} but lie in one template facet"
                    )
        out.append(ascending(labels))
    return tuple(out)


def _u(row: int | str, col: int) -> str:
    return f"u_{row}_{col}"


def _u_row_col(label: str) -> tuple[str, int]:
    _, row, col = label.split("_")
    return row, int(col)


def _certify(
    surface: TriangulatedSurface, assignment: Mapping[Vertex, Vertex], recipe: ConstructionRecipe
) -> ConstructionResult:
    """Map surface onto torus7 and check validity, genus, vertex count and degree against the recipe.

    The facet count is not checked separately: a closed surface has 3F = 2E,
    so its vertex count and genus fix F = 2V - 4 + 4g.
    """
    vertex_map = SimplicialVertexMap.build(surface, torus7(), assignment)
    report = validate_closed_surface(surface)
    if not report.ok:
        raise CertificationError(f"built surface is invalid: {report.violations[0]}")
    g = genus(surface)
    if g != recipe.genus:
        raise CertificationError(f"built surface has genus {g}, expected {recipe.genus}")
    if len(surface.vertices) != recipe.expected_vertices:
        raise CertificationError(
            f"built surface has {len(surface.vertices)} vertices, expected {recipe.expected_vertices}"
        )
    deg_report = degree(vertex_map)
    if deg_report.degree != recipe.degree:
        raise CertificationError(f"built map has degree {deg_report.degree}, expected {recipe.degree}")
    return ConstructionResult(surface, vertex_map, deg_report, recipe)


# ---------------------------------------------------------------------------
# Strip-of-squares builder (4g-gon construction)
# ---------------------------------------------------------------------------


def build_polygon(g: int, d: int) -> ConstructionResult:
    """Degree-d map from a (7|d|+2-2g)-vertex genus-g surface, |d| >= 2g-1: construct(g, d, "polygon")."""
    return construct(g, d, "polygon")


def _polygon(g: int, m: int) -> _Built:
    """The strip of m square patches: a genus-g surface with a degree-m map, m >= 2g-1.

    The patches are 2g-1+l in number (l = m-(2g-1)).  Patch q uses column-q
    labels on its top and left sides; bottom sides repeat the top labels of
    the partner patch pi(q), which pairs patch q with patch 2g-q+l for
    q < g, leaves patches g..g+l self-identified, and corner labels u_1_*
    close the strip into a single polygon with all corners of the original
    4g-gon identified.  The map collapses columns: u_ROW_COL -> vROW.
    """
    l = m - (2 * g - 1)
    n_quads = 2 * g - 1 + l  # == m

    def corner(q: int) -> str:
        q = (q - 1) % n_quads + 1
        if g + 1 <= q <= g + l:
            return _u(1, q - g + 1)
        return _u(1, 1)

    def partner(q: int) -> int:
        if g <= q <= g + l:
            return q
        return 2 * g - q + l

    facets: list[Triangle] = []
    for q in range(1, n_quads + 1):
        nxt = q % n_quads + 1
        p = partner(q)
        slots = QuadPatchSlots(
            bl=corner(q),
            b1=_u(2, p),
            b2=_u(3, p),
            br=corner(nxt),
            l1=_u(5, q),
            l2=_u(4, q),
            tl=corner(q),
            t1=_u(2, q),
            t2=_u(3, q),
            tr=corner(nxt),
            r1=_u(5, nxt),
            r2=_u(4, nxt),
            m_low=_u(7, q),
            m_high=_u(6, q),
        )
        facets.extend(quad_patch(slots))

    surface = TriangulatedSurface.from_facets(
        facets, positive_reference=(_u(1, 1), _u(2, 1), _u(4, 1))
    )
    return surface, {v: f"v{_u_row_col(v)[0]}" for v in surface.vertices}


# ---------------------------------------------------------------------------
# Edge-insertion subdivision and connected sum
# ---------------------------------------------------------------------------


def split_triangle_with_edge(
    surface: TriangulatedSurface,
    facet: tuple[Vertex, Vertex, Vertex],
    q_new: Vertex,
    r_new: Vertex,
) -> TriangulatedSurface:
    """Replace facet (p,q,r) by five facets spanning a new interior edge q_new r_new.

    The roles are positional: p keeps its link shape, q gains the new edge
    endpoints in its link, and the five replacement facets are {p,q',r'},
    {p,q,r'}, {p,q',r}, {q,q',r'}, {q,q',r} with q'=q_new, r'=r_new.  Adds
    2 vertices, 6 edges and 4 facets; Euler characteristic is unchanged.
    The result always carries a stored positive reference continuing the
    input's orientation class (the input's own reference, or a re-anchored
    replacement when that exact facet was split).
    """
    p, q, r = facet
    if len({p, q, r}) != 3:
        raise ValueError(f"facet {facet!r} has repeated vertices")
    old = ascending((p, q, r))
    if old not in surface.facet_set():
        raise ValueError(f"{list(facet)} is not a facet of the surface")
    if q_new == r_new or q_new in surface.vertices or r_new in surface.vertices:
        raise ValueError(f"labels {q_new!r}, {r_new!r} must be fresh and distinct")

    replaced = False
    new_facets: list[Triangle] = []
    for f in surface.facets:
        if not replaced and f == old:
            replaced = True
            continue
        new_facets.append(f)
    new_facets.extend(
        ascending(t)
        for t in (
            (p, q_new, r_new),
            (p, q, r_new),
            (p, q_new, r),
            (q, q_new, r_new),
            (q, q_new, r),
        )
    )

    # Pin the orientation class explicitly: output always stores a
    # reference, otherwise an unanchored input could silently change class
    # when its implicit (lexicographically first) reference facet is the
    # one being split.
    reference: tuple[Vertex, Vertex, Vertex] = surface.default_reference()
    if ascending(reference) == old:
        # Re-anchor onto the piece (p, q, r_new); ordering it so its cycle
        # extends the cycle the old reference declared keeps the
        # orientation class unchanged.
        reference = (p, q, r_new) if triple_parity(reference) == triple_parity((p, q, r)) else (q, p, r_new)
    return TriangulatedSurface.from_facets(
        new_facets, vertices=list(surface.vertices) + [q_new, r_new], positive_reference=reference
    )


def connected_sum(
    left: TriangulatedSurface,
    right: TriangulatedSurface,
    left_facet: tuple[Vertex, Vertex, Vertex],
    right_facet: tuple[Vertex, Vertex, Vertex],
    gluing: dict[Vertex, Vertex] | None = None,
) -> TriangulatedSurface:
    """Remove one facet from each surface and glue along the exposed triangles.

    gluing maps the removed left facet's vertices onto the removed right
    facet's vertices; None means the label-order bijection, auto-corrected
    by one swap if it clashes with the declared orientations.  The result
    keeps all left labels; the three glued right vertices are renamed to
    their left partners.  Orientation contract: the result's orientation
    extends the left surface's, and on the surviving right facets it agrees
    with the right surface's own declared orientation.  A gluing that would
    force the mirror image instead is rejected.
    """
    overlap = set(left.vertices) & set(right.vertices)
    if overlap:
        raise GluingError(f"vertex labels are shared between the summands: {sorted(overlap)[:4]}")
    sigma = ascending(left_facet)
    tau = ascending(right_facet)
    if sigma not in left.facet_set():
        raise GluingError(f"{list(left_facet)} is not a facet of the left surface")
    if tau not in right.facet_set():
        raise GluingError(f"{list(right_facet)} is not a facet of the right surface")

    left_or = orient(left)
    right_or = orient(right)

    def coherent(bij: dict[Vertex, Vertex]) -> bool:
        # The glued complex orients coherently iff the bijection carries the
        # left facet's oriented boundary cycle onto the reverse of the right
        # facet's cycle.  In sign terms: s_sigma * parity(bij) * s_tau = -1.
        image = tuple(bij[v] for v in sigma)
        return left_or.signs[sigma] * triple_parity(image) * right_or.signs[tau] == -1

    if gluing is None:
        bij = dict(zip(sigma, tau))
        if not coherent(bij):
            bij = {sigma[0]: tau[0], sigma[1]: tau[2], sigma[2]: tau[1]}
        chosen = bij
    else:
        if sorted(gluing) != list(sigma) or sorted(gluing.values()) != list(tau):
            raise GluingError(
                f"gluing must biject {list(sigma)} onto {list(tau)}, got {gluing!r}"
            )
        chosen = dict(gluing)
        if not coherent(chosen):
            a, b = sigma[0], sigma[1]
            hint = {**chosen, a: chosen[b], b: chosen[a]}
            raise GluingError(
                "gluing clashes with the declared orientations; swapping two pairs fixes it, "
                f"e.g. {hint!r}"
            )
    assert coherent(chosen)

    rename = {v: v for v in right.vertices}
    for lv, rv in chosen.items():
        rename[rv] = lv
    right_renamed = right.relabel(rename)

    surviving_left = [f for f in left.facets if f != sigma]
    surviving_right = [f for f in right_renamed.facets if f != sigma]

    # Anchor the result's orientation to the left side: the lex-least
    # surviving left facet, ordered so its declared sign is preserved.
    anchor = surviving_left[0]
    a, b, c = anchor
    reference = anchor if left_or.signs[anchor] > 0 else (b, a, c)

    result = TriangulatedSurface.from_facets(
        surviving_left + surviving_right, positive_reference=reference
    )

    # Certify the orientation contract on the right side.  relabel may
    # permute a facet's ascending order, so compare via ordered triples.
    result_or = orient(result)
    back = {lv: rv for rv, lv in rename.items() if rv != lv}
    for f in surviving_right:
        pre = tuple(back.get(v, v) for v in f)
        if result_or.signs[f] != right_or.sign(pre):
            raise CertificationError(
                "glued complex does not extend the right surface's orientation; "
                f"first clash at facet {list(f)}"
            )
    return result


# ---------------------------------------------------------------------------
# Connected-sum towers
# ---------------------------------------------------------------------------


def _torus_copy(col: int) -> TriangulatedSurface:
    return torus7().relabel({f"v{j}": _u(j, col) for j in range(1, 8)})


def build_sum_high(g: int, i: int) -> ConstructionResult:
    """Degree g+i from a (6(g+i)+1)-vertex genus-g surface, 0 <= i <= g-2: construct(g, g+i, "sum-high")."""
    if i < 0:
        raise VariantError(f"sum-high construction requires i >= 0, got (g={g}, i={i})")
    return construct(g, g + i, "sum-high")


def _sum_high(g: int, m: int) -> _Built:
    """The sum-high tower: a genus-g surface with a degree-m map, g <= m <= 2g-2.

    With i = m-g, start from the strip for genus i+1 at degree 2i+1, then
    attach g-i-1 torus copies.  Each copy first gets the designated facet
    subdivided with an interior edge (columns alternate between the
    {1,3,4} facet and the {1,3,7} facet), and the middle subdivision piece
    {p, q', r'} is glued onto the matching facet of the growing surface;
    the glued labels are renamed so primes never survive.  The two
    off-centre pieces of each subdivision are the facets that map
    degenerately onto an edge of the torus.
    """
    i = m - g
    surface = _polygon(i + 1, 2 * i + 1)[0]
    for k in range(1, g - i):
        col = 2 * i + 1 + k
        copy = _torus_copy(col)
        if k % 2 == 1:
            split_facet = (_u(1, col), _u(3, col), _u(4, col))
            q_new, r_new = _u("3'", col), _u("4'", col)
            if k == 1:
                anchor = (_u(1, 1), _u(3, 2 * i + 1), _u(4, 1))
            else:
                anchor = (_u(1, 1), _u(3, col - 1), _u(4, col - 1))
        else:
            split_facet = (_u(1, col), _u(3, col), _u(7, col))
            q_new, r_new = _u("3'", col), _u("7'", col)
            anchor = (_u(1, 1), _u(3, col - 1), _u(7, col - 1))
        piece = split_triangle_with_edge(copy, split_facet, q_new, r_new)
        glue_to = (split_facet[0], q_new, r_new)
        surface = connected_sum(surface, piece, anchor, glue_to, dict(zip(anchor, glue_to)))

    assignment: dict[str, str] = {}
    for v in surface.vertices:
        row, _ = _u_row_col(v)
        if "'" in row:
            raise CertificationError(f"primed label {v} survived gluing; renaming is broken")
        assignment[v] = f"v{row}"
    return surface, assignment


def build_sum_low(g: int, i: int) -> ConstructionResult:
    """Degree g-i from a (6g-2i+1)-vertex genus-g surface, 1 <= i <= g-1: construct(g, g-i, "sum-low")."""
    if i > g - 1:
        raise VariantError(f"sum-low construction requires i <= g-1, got (g={g}, i={i})")
    return construct(g, g - i, "sum-low")


def _sum_low(g: int, m: int) -> _Built:
    """The sum-low tower: a genus-g surface with a degree-m map, 1 <= m <= g-1.

    With i = g-m, start from the genus-m surface of the sum-high tower at
    degree m (plain torus7 when m = 1) and attach i unsubdivided torus copies,
    alternating the glued facet between the {1,2,4} and {1,5,7} types.  The
    odd-numbered attachments glue against the copy's orientation, so those
    copies are declared reversed; the even ones glue as-is.  All vertices
    of the attached copies map to v1, which makes every facet they
    contribute degenerate except the single {2,4,5}-type facet of the first
    copy, and that one exactly replaces the {1,2,4} facet consumed by the
    first gluing.
    """
    i, base_genus = g - m, m
    surface = _torus_copy(1) if base_genus == 1 else _sum_high(base_genus, base_genus)[0]
    for k in range(1, i + 1):
        col = base_genus + k
        copy = _torus_copy(col)
        if k % 2 == 1:
            glue_to = (_u(1, col), _u(2, col), _u(4, col))
            if k == 1:
                anchor = (_u(1, 1), _u(2, 1), _u(4, 1))
            else:
                anchor = (_u(1, 1), _u(2, col - 1), _u(4, col - 1))
            copy = reverse_orientation(copy)
        else:
            glue_to = (_u(1, col), _u(5, col), _u(7, col))
            anchor = (_u(1, 1), _u(5, col - 1), _u(7, col - 1))
        surface = connected_sum(surface, copy, anchor, glue_to, dict(zip(anchor, glue_to)))

    # The base reference facet {1,2,4} was consumed by the first gluing;
    # re-anchor on the {2,3,5} facet of column 1, which is positive in the
    # base orientation, so the orientation class is unchanged.
    surface = surface.with_reference((_u(2, 1), _u(3, 1), _u(5, 1)))

    assignment = {}
    for v in surface.vertices:
        row, colno = _u_row_col(v)
        assignment[v] = f"v{row}" if colno <= base_genus else "v1"
    return surface, assignment


# ---------------------------------------------------------------------------
# The two explicit genus-2 fixtures
# ---------------------------------------------------------------------------

_SIGMA2_10V_FACETS: tuple[tuple[str, str, str], ...] = (
    ("v1", "v2", "v3"),
    ("v1", "v2", "v4"),
    ("v1", "v3", "v5"),
    ("v1", "v4", "v6"),
    ("v1", "v5", "v7"),
    ("v1", "v6", "v8"),
    ("v1", "v7", "v8"),
    ("v2", "v3", "v6"),
    ("v2", "v4", "v8"),
    ("v2", "v5", "v6"),
    ("v2", "v5", "v9"),
    ("v2", "v7", "v8"),
    ("v2", "v7", "v10"),
    ("v2", "v9", "v10"),
    ("v3", "v5", "v10"),
    ("v3", "v6", "v8"),
    ("v3", "v8", "v9"),
    ("v3", "v9", "v10"),
    ("v4", "v6", "v10"),
    ("v4", "v7", "v9"),
    ("v4", "v7", "v10"),
    ("v4", "v8", "v9"),
    ("v5", "v6", "v10"),
    ("v5", "v7", "v9"),
)

_SIGMA2_10V_ASSIGNMENT: dict[str, str] = {
    "v1": "v1",
    "v2": "v2",
    "v3": "v4",
    "v4": "v6",
    "v10": "v6",
    "v5": "v3",
    "v6": "v5",
    "v7": "v7",
    "v8": "v7",
    "v9": "v7",
}


def sigma2_10v() -> ConstructionResult:
    """Degree-1 map from the vertex-minimal 10-vertex genus-2 surface: construct(2, 1, "sigma2-10v")."""
    return construct(2, 1, "sigma2-10v")


def _sigma2_10v(g: int, m: int) -> _Built:
    """Domain reference [v1,v2,v3]; the assignment folds the ten vertices onto torus7, collapsing eight facets."""
    surface = TriangulatedSurface.from_facets(_SIGMA2_10V_FACETS, positive_reference=("v1", "v2", "v3"))
    return surface, dict(_SIGMA2_10V_ASSIGNMENT)


def sigma2_13v() -> ConstructionResult:
    """The 13-vertex genus-2 surface with its degree-2 map (sum-high at g=2, i=0)."""
    return build_sum_high(2, 0)


def _constant(g: int, m: int) -> _Built:
    """The constant map to v1 from the smallest genus-g surface this module emits."""
    domain = torus7() if g == 1 else _sigma2_10v(2, 1)[0] if g == 2 else _sum_low(g, 1)[0]
    return domain, {v: "v1" for v in domain.vertices}


# ---------------------------------------------------------------------------
# The variant table
# ---------------------------------------------------------------------------


class _Variant(NamedTuple):
    rule: str  # the applicability rule as VariantError states it
    applies: Callable[[int, int], bool]  # (g, |d|)
    vertices: Callable[[int, int], int]  # (g, |d|) -> vertex count of the domain
    build: Callable[[int, int], _Built]  # (g, |d|) -> the positively oriented map, uncertified


_VARIANTS: dict[str, _Variant] = {
    "polygon": _Variant(
        "polygon requires |d| >= 2g-1 = {two_g_minus_1}",
        lambda g, m: m >= 2 * g - 1,
        lambda g, m: 7 * m + 2 - 2 * g,
        _polygon,
    ),
    "sum-high": _Variant(
        "sum-high requires g >= 2 and g <= |d| <= 2g-2",
        lambda g, m: g >= 2 and g <= m <= 2 * g - 2,
        lambda g, m: 6 * m + 1,
        _sum_high,
    ),
    "sum-low": _Variant(
        "sum-low requires g >= 2 and 1 <= |d| <= g-1",
        lambda g, m: g >= 2 and 1 <= m <= g - 1,
        lambda g, m: 6 * g - 2 * (g - m) + 1,
        _sum_low,
    ),
    "sigma2-10v": _Variant(
        "sigma2-10v requires g = 2 and |d| = 1",
        lambda g, m: (g, m) == (2, 1), lambda g, m: 10, _sigma2_10v,
    ),
    # Alias of sum-high at (2, 2); listed after it so the automatic choice names sum-high.
    "sigma2-13v": _Variant(
        "sigma2-13v requires g = 2 and |d| = 2",
        lambda g, m: (g, m) == (2, 2), lambda g, m: 13, _sum_high,
    ),
    # Domains: torus7, sigma2_10v, then sum-low at i = g-1.
    "constant": _Variant(
        "constant requires d = 0",
        lambda g, m: m == 0,
        lambda g, m: 7 if g == 1 else 10 if g == 2 else 4 * g + 3,
        _constant,
    ),
}
VARIANTS = tuple(_VARIANTS)


def recipe_for(g: int, d: int, variant: str | None = None) -> ConstructionRecipe:
    """The variant for (g, d) and the vertex count its formula promises.

    With variant None, the applicable variant with the fewest vertices wins;
    ties go to the earlier table entry.  Raises VariantError when g < 1 or
    the named variant is unknown or its rule excludes (g, d).
    """
    if g < 1:
        raise VariantError(f"genus must be >= 1, got {g}")
    mag = abs(d)
    if variant is None:
        applicable = [name for name, v in _VARIANTS.items() if v.applies(g, mag)]
        variant = min(applicable, key=lambda name: _VARIANTS[name].vertices(g, mag))
    entry = _VARIANTS.get(variant)
    if entry is None:
        problem = f"unknown variant {variant!r}; expected one of {', '.join(VARIANTS)}"
    elif not entry.applies(g, mag):
        problem = entry.rule.format(two_g_minus_1=2 * g - 1)
    else:
        return ConstructionRecipe(variant=variant, genus=g, degree=d, expected_vertices=entry.vertices(g, mag))
    raise VariantError(f"variant {variant!r} is not applicable to (g={g}, d={d}): {problem}")


def construct(g: int, d: int, variant: str | None = None) -> ConstructionResult:
    """Build the surface/map pair for (g, d) with the variant recipe_for picks.

    The variant builds the degree-|d| map; for negative d its domain
    reference is reversed.  The result is certified once, against the recipe.
    """
    recipe = recipe_for(g, d, variant)
    surface, assignment = _VARIANTS[recipe.variant].build(g, abs(d))
    if d < 0:
        surface = reverse_orientation(surface)
    return _certify(surface, assignment, recipe)
