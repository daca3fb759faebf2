"""Command-line interface: construct, verify, analyze, and export surfaces.

Exit codes follow a fixed triage: 0 means success, 1 means a mathematical
check failed (invalid surface, non-simplicial map, degree mismatch), and
2 means the invocation itself was unusable (bad arguments, malformed
input files, inapplicable construction variant).  Standard output always
carries a single JSON document, except for OFF export, and identical
invocations produce byte-identical output.  Every subcommand accepts
--seed for harness compatibility; it is ignored because every algorithm
here is deterministic.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path
from typing import Any

from . import analysis, constructions, formats, maps, surface

USAGE_ERROR_TYPES = (
    formats.FormatError,
    constructions.VariantError,
    json.JSONDecodeError,
    OSError,
)
MATH_ERROR_TYPES = (
    surface.InvalidSurfaceError,
    surface.NonOrientableError,
    maps.MapDefinitionError,
    maps.NotSimplicialError,
    maps.DegreeInconsistencyError,
    constructions.CertificationError,
    constructions.GluingError,
)


def _emit(doc: dict[str, Any]) -> None:
    sys.stdout.write(formats.dumps_json(doc))


def _load_surface_arg(path: str) -> surface.TriangulatedSurface:
    return formats.load_surface(Path(path))


def cmd_construct(args: argparse.Namespace) -> int:
    bundle = constructions.construct(args.genus, args.degree, variant=args.variant)
    if args.format == "off":
        sys.stdout.write(formats.surface_to_off(bundle.surface))
        if args.out:
            _write_bundle(bundle, Path(args.out))
        return 0
    written: list[str] = []
    if args.out:
        written = _write_bundle(bundle, Path(args.out))
    report = bundle.report
    fv = surface.f_vector(bundle.surface)
    _emit(
        {
            "variant": bundle.recipe.variant,
            "genus": args.genus,
            "degree": args.degree,
            "certified_degree": report.degree,
            "vertices": fv.vertices,
            "edges": fv.edges,
            "facets": fv.facets,
            "degenerate_facets": report.degenerate_facets,
            "nondegenerate_facets": report.nondegenerate_facets,
            "codomain_vertices": len(bundle.vertex_map.codomain.vertices),
            "written": written,
        }
    )
    return 0


def _write_bundle(bundle: constructions.ConstructionResult, out_dir: Path) -> list[str]:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "domain.json").write_text(formats.dump_surface(bundle.surface), encoding="utf-8")
    (out_dir / "codomain.json").write_text(
        formats.dump_surface(bundle.vertex_map.codomain), encoding="utf-8"
    )
    map_doc = {
        "domain": "domain.json",
        "codomain": "codomain.json",
        "assignment": {v: bundle.vertex_map.assignment[v] for v in bundle.surface.vertices},
    }
    (out_dir / "map.json").write_text(formats.dumps_json(map_doc), encoding="utf-8")
    (out_dir / "report.json").write_text(
        formats.dumps_json(formats.degree_report_to_dict(bundle.report)), encoding="utf-8"
    )
    (out_dir / "recipe.json").write_text(
        formats.dumps_json(dataclasses.asdict(bundle.recipe)), encoding="utf-8"
    )
    return ["domain.json", "codomain.json", "map.json", "report.json", "recipe.json"]


def cmd_verify(args: argparse.Namespace) -> int:
    surf = _load_surface_arg(args.surface)
    report = surface.validate_closed_surface(surf)
    doc: dict[str, Any] = {
        "ok": report.ok,
        "violations": [
            {"code": v.code, "detail": v.detail} for v in report.violations
        ],
    }
    if not report.ok:
        doc.update({"f_vector": None, "euler_characteristic": None, "orientable": None, "genus": None})
        _emit(doc)
        return 1
    fv = surface.f_vector(surf)
    doc["f_vector"] = list(fv.as_tuple())
    doc["euler_characteristic"] = surface.euler_characteristic(surf)
    orientable = surface.is_orientable(surf)
    doc["orientable"] = orientable
    if not orientable:
        doc["ok"] = False
        doc["genus"] = None
        doc["violations"].append(
            {"code": "non_orientable", "detail": "orientation propagation hit a contradiction"}
        )
        _emit(doc)
        return 1
    doc["genus"] = surface.genus(surf)
    if args.map is None:
        _emit(doc)
        return 0
    vertex_map = formats.load_map(Path(args.map))
    if vertex_map.domain != surf:  # equality includes the positive reference, which fixes the sign
        raise formats.FormatError(f"{args.map}: the map's domain is not the surface {args.surface}")
    simplicial_report = maps.validate_simplicial(vertex_map)
    doc["simplicial"] = simplicial_report.ok
    if not simplicial_report.ok:
        doc["ok"] = False
        doc["violations"].extend(
            {"code": v.code, "detail": v.detail} for v in simplicial_report.violations
        )
        _emit(doc)
        return 1
    degree_report = maps.degree(vertex_map)
    doc["degree_report"] = formats.degree_report_to_dict(degree_report)
    _emit(doc)
    return 0


def cmd_automorphisms(args: argparse.Namespace) -> int:
    surf = _load_surface_arg(args.surface)
    autos = analysis.automorphisms(surf)
    cycles = [analysis.cycle_notation(f) for f in autos]
    # An automorphism maps facets onto facets, so its degree is the sign of
    # its image of the positive reference.
    orientation = surface.orient(surf)
    degrees = sorted({orientation.sign(f.assignment[v] for v in orientation.reference) for f in autos})
    _emit({"count": len(autos), "degrees": degrees, "cycles": cycles})
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    domain = _load_surface_arg(args.domain)
    codomain = _load_surface_arg(args.codomain)
    caps = analysis.EnumerationCaps.parse(args.caps) if args.caps else None
    report = analysis.degree_spectrum(domain, codomain, caps=caps, backend=args.backend)
    _emit(
        {
            "domain": report.domain_summary,
            "codomain": report.codomain_summary,
            "total_maps": report.total_maps,
            "degrees": list(report.achievable_degrees),
            "witnesses": {
                str(d): dict(report.witnesses[d].assignment) for d in report.achievable_degrees
            },
            "partial": report.partial,
            "resume_token": report.resume_token,
        }
    )
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    rng = analysis.degree_bound(args.g1, args.g2)
    doc: dict[str, Any] = {
        "g1": args.g1,
        "g2": args.g2,
        "kind": rng.kind,
        "bound": rng.bound,
        "simplicial_volume_domain": analysis.simplicial_volume(args.g1),
        "simplicial_volume_codomain": analysis.simplicial_volume(args.g2),
    }
    if args.g2 == 1:
        # Only maps of nonzero degree have a vertex bound.
        degrees = range(1, args.dmax + 1) if rng.kind != "zero-only" else ()
        bounds = [analysis.vertex_lower_bound(args.g1, d) for d in degrees]
        doc["vertex_lower_bounds"] = [
            {"degree": d, "formula": b.formula, "refined": b.refined}
            for d, b in enumerate(bounds, start=1)
        ]
    _emit(doc)
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    surf = _load_surface_arg(args.surface)
    if args.format == "off":
        sys.stdout.write(formats.surface_to_off(surf))
    else:
        _emit(formats.surface_to_dict(surf))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="surfacemaps",
        description="Triangulated closed surfaces, simplicial vertex maps, and degrees.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="accepted and ignored; output is deterministic")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", parents=[common], help="build a certified degree-d map from a genus-g surface")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--variant", choices=list(constructions.VARIANTS), default=None)
    p.add_argument("--out", default=None, help="directory for the surface/map/report/recipe bundle")
    p.add_argument("--format", choices=["json", "off"], default="json")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", parents=[common], help="validate a surface file, optionally with a map file")
    p.add_argument("surface")
    p.add_argument("map", nargs="?", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("automorphisms", parents=[common], help="list label symmetries of a surface file")
    p.add_argument("surface")
    p.set_defaults(func=cmd_automorphisms)

    p = sub.add_parser("spectrum", parents=[common], help="achievable degrees between two surface files")
    p.add_argument("domain")
    p.add_argument("codomain")
    p.add_argument("--caps", default=None, help="caps string, e.g. '12', '12x14', '12x14:50000', ':50000'")
    p.add_argument("--backend", choices=["auto", "compiled", "python"], default="auto")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("bounds", parents=[common], help="degree bound between genera; vertex bounds for torus targets")
    p.add_argument("--g1", type=int, required=True)
    p.add_argument("--g2", type=int, required=True)
    p.add_argument("--dmax", type=int, default=6, help="largest |d| tabulated when --g2 1")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("export", parents=[common], help="re-serialize a surface file")
    p.add_argument("surface")
    p.add_argument("--format", choices=["off", "json"], default="off")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except analysis.SearchCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if exc.reason == "vertex-guard" else 1
    except MATH_ERROR_TYPES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except USAGE_ERROR_TYPES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # bad caps strings and similar argument-shaped values
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
