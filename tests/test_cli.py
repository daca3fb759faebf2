"""Command-line behavior: documents, exit codes, determinism."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import fixtures as fx
from surfacemaps import (
    automorphisms,
    construct,
    degree,
    dump_surface,
    load_surface,
    orient,
    sigma2_10v,
    split_triangle_with_edge,
    surface_from_dict,
    tetrahedron,
    torus7,
)
from surfacemaps.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_torus(tmp_path):
    p = tmp_path / "torus7.json"
    p.write_text(dump_surface(torus7()), encoding="utf-8")
    return p


def test_construct_manifest_g2_d5(capsys):
    code, out, _ = run_cli(capsys, "construct", "--genus", "2", "--degree", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == 33
    assert doc["certified_degree"] == 5
    assert doc["variant"] == "polygon"


def test_construct_manifest_g2_d2_thirteen_vertices(capsys):
    code, out, _ = run_cli(capsys, "construct", "--genus", "2", "--degree", "2")
    assert code == 0
    assert json.loads(out)["vertices"] == 13


def test_construct_constant_bundle(capsys):
    code, out, _ = run_cli(capsys, "construct", "--genus", "1", "--degree", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["variant"] == "constant"
    assert doc["certified_degree"] == 0


def test_construct_inapplicable_variant_exits_2(capsys):
    code, out, err = run_cli(capsys, "construct", "--genus", "3", "--degree", "1", "--variant", "polygon")
    assert code == 2
    assert out == ""
    assert "polygon" in err


def test_construct_writes_bundle(tmp_path, capsys):
    out_dir = tmp_path / "bundle"
    code, out, _ = run_cli(
        capsys, "construct", "--genus", "2", "--degree", "1", "--out", str(out_dir)
    )
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["codomain.json", "domain.json", "map.json", "recipe.json", "report.json"]
    recipe = json.loads((out_dir / "recipe.json").read_text())
    assert recipe == {"variant": "sigma2-10v", "genus": 2, "degree": 1, "expected_vertices": 10}
    # the map file uses path references resolved against its own directory
    code2, out2, _ = run_cli(capsys, "verify", str(out_dir / "domain.json"), str(out_dir / "map.json"))
    assert code2 == 0
    doc = json.loads(out2)
    assert doc["ok"] and doc["genus"] == 2
    assert doc["degree_report"]["degree"] == 1


def test_verify_refuses_a_map_from_another_surface(tmp_path, capsys):
    torus, genus2 = tmp_path / "b11", tmp_path / "b23"
    for g, d, out_dir in ((1, 1, torus), (2, 3, genus2)):
        assert run_cli(capsys, "construct", "--genus", str(g), "--degree", str(d), "--out", str(out_dir))[0] == 0
    surface_path, map_path = str(torus / "domain.json"), str(genus2 / "map.json")
    code, out, err = run_cli(capsys, "verify", surface_path, map_path)
    assert code == 2 and out == ""
    assert err.startswith("error:") and surface_path in err and map_path in err


def test_verify_torus_fixture(tmp_path, capsys):
    p = write_torus(tmp_path)
    code, out, _ = run_cli(capsys, "verify", str(p))
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["genus"] == 1 and doc["f_vector"] == [7, 21, 14]


def test_verify_broken_surface_exits_1_with_violations(tmp_path, capsys):
    doc = json.loads(dump_surface(torus7()))
    doc["triangles"] = doc["triangles"][:-1]
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(p))
    assert code == 1
    report = json.loads(out)
    assert not report["ok"]
    assert any(v["code"] == "edge_degree" for v in report["violations"])


def test_verify_malformed_json_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("not json", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(p))
    assert code == 2
    assert "error" in err


def test_verify_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", str(tmp_path / "absent.json"))
    assert code == 2


def test_verify_non_orientable_exits_1(tmp_path, capsys):
    p = tmp_path / "rp2.json"
    p.write_text(
        json.dumps(
            {
                "vertices": sorted({v for f in fx.RP2_6_FACETS for v in f}),
                "triangles": sorted(sorted(f) for f in fx.RP2_6_FACETS),
                "positive_triangle": None,
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "verify", str(p))
    assert code == 1
    doc = json.loads(out)
    assert doc["orientable"] is False and doc["genus"] is None


def write_empty(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"vertices": [], "triangles": [], "positive_triangle": None}), encoding="utf-8")
    return p


def test_verify_empty_complex_exits_1(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "verify", str(write_empty(tmp_path)))
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert [v["code"] for v in doc["violations"]] == ["no_facets"]


@pytest.mark.parametrize("command", ["automorphisms", "spectrum-domain", "spectrum-codomain"])
def test_empty_complex_is_an_invalid_surface(command, tmp_path, capsys):
    empty, torus = str(write_empty(tmp_path)), str(write_torus(tmp_path))
    argv = {
        "automorphisms": ["automorphisms", empty],
        "spectrum-domain": ["spectrum", empty, torus],
        "spectrum-codomain": ["spectrum", torus, empty],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: not a valid closed surface: no_facets: the complex has no facets\n"


def test_automorphisms_doc(tmp_path, capsys):
    p = write_torus(tmp_path)
    code, out, _ = run_cli(capsys, "automorphisms", str(p))
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 42
    assert doc["degrees"] == [1]
    assert "()" in doc["cycles"]


@pytest.mark.parametrize(
    "key", ["tetrahedron", "torus7", "sigma2_10v", (2, 2), (3, 1), (3, 0), (3, 2), (3, 3), (4, 2), (1, 4), (1, 6)]
)
def test_automorphism_degrees_are_signs_of_the_reference_image(key, tmp_path, capsys):
    # The CLI reads each automorphism's degree off the orientation sign of its
    # image of the positive reference; the full degree report must agree.
    fixed = {"tetrahedron": tetrahedron, "torus7": torus7, "sigma2_10v": lambda: sigma2_10v().surface}
    surf = fixed[key]() if isinstance(key, str) else construct(*key).surface
    orientation = orient(surf)
    autos = automorphisms(surf)
    degrees = [degree(f).degree for f in autos]
    assert [orientation.sign(f.assignment[v] for v in orientation.reference) for f in autos] == degrees
    if key == "tetrahedron":
        assert set(degrees) == {-1, 1}
    p = tmp_path / "surface.json"
    p.write_text(dump_surface(surf), encoding="utf-8")
    code, out, _ = run_cli(capsys, "automorphisms", str(p))
    assert code == 0 and json.loads(out)["degrees"] == sorted(set(degrees))


def test_spectrum_doc_and_caps(tmp_path, capsys):
    p = write_torus(tmp_path)
    code, out, _ = run_cli(capsys, "spectrum", str(p), str(p))
    assert code == 0
    doc = json.loads(out)
    assert doc["total_maps"] == fx.TORUS7_SELF_MAP_COUNT
    assert doc["degrees"] == [0, 1]
    assert doc["partial"] is False
    code2, out2, _ = run_cli(capsys, "spectrum", str(p), str(p), "--caps", ":50")
    assert code2 == 0
    doc2 = json.loads(out2)
    assert doc2["partial"] is True and doc2["resume_token"] is not None


def test_spectrum_vertex_guard_exits_2(tmp_path, capsys):
    big = tmp_path / "big.json"
    from surfacemaps import build_polygon

    big.write_text(dump_surface(build_polygon(2, 3).surface), encoding="utf-8")
    p = write_torus(tmp_path)
    code, _, err = run_cli(capsys, "spectrum", str(big), str(p))
    assert code == 2
    # The advice names what a CLI user can change; bijective_only is not settable here.
    assert "--caps" in err and "SURFACE_DEGREE_CAPS" in err
    assert "bijective_only" not in err


def test_spectrum_non_orientable_input_exits_1_before_the_vertex_guard(tmp_path, capsys):
    # A 12-vertex projective plane: over the default 10x10 caps, but refused
    # for being non-orientable before the caps are looked at.
    rp2 = surface_from_dict({"vertices": [], "triangles": [list(f) for f in fx.RP2_6_FACETS]})
    for k, facet in enumerate(rp2.facets[:3]):
        rp2 = split_triangle_with_edge(rp2, facet, f"q{k}", f"r{k}")
    big = tmp_path / "rp2_12.json"
    big.write_text(dump_surface(rp2), encoding="utf-8")
    code, out, err = run_cli(capsys, "spectrum", str(big), str(write_torus(tmp_path)))
    assert (code, out) == (1, "")
    assert "no coherent orientation" in err


def test_spectrum_bad_caps_exits_2(tmp_path, capsys):
    p = write_torus(tmp_path)
    code, _, err = run_cli(capsys, "spectrum", str(p), str(p), "--caps", "nonsense")
    assert code == 2


@pytest.mark.parametrize("caps", [":0", ":-5"])
def test_spectrum_budget_below_one_exits_2(tmp_path, capsys, caps):
    p = write_torus(tmp_path)
    code, out, err = run_cli(capsys, "spectrum", str(p), str(p), "--caps", caps)
    assert code == 2
    assert out == ""
    assert "max_maps" in err


def test_bounds_doc(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--g1", "3", "--g2", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "bounded" and doc["bound"] == 2
    assert "vertex_lower_bounds" not in doc


def test_bounds_torus_target_tabulates_vertex_bounds(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--g1", "2", "--g2", "1", "--dmax", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "all-integers"
    rows = doc["vertex_lower_bounds"]
    assert [r["degree"] for r in rows] == [1, 2, 3]
    assert rows[1] == {"degree": 2, "formula": 12, "refined": 13}


def test_bounds_sphere_to_torus_is_zero_only(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--g1", "0", "--g2", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "zero-only" and doc["bound"] is None
    assert doc["vertex_lower_bounds"] == []


def test_export_off_counts_line(tmp_path, capsys):
    p = write_torus(tmp_path)
    code, out, _ = run_cli(capsys, "export", str(p), "--format", "off")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "OFF" and lines[1] == "7 14 0"


def test_export_json_round_trips(tmp_path, capsys):
    p = write_torus(tmp_path)
    code, out, _ = run_cli(capsys, "export", str(p), "--format", "json")
    assert code == 0
    assert surface_from_dict(json.loads(out)) == torus7()


def test_seed_is_accepted_and_output_identical(capsys):
    _, out1, _ = run_cli(capsys, "construct", "--genus", "3", "--degree", "4", "--seed", "1")
    _, out2, _ = run_cli(capsys, "construct", "--genus", "3", "--degree", "4", "--seed", "999")
    assert out1 == out2


def test_console_script_subprocess(tmp_path):
    p = tmp_path / "torus7.json"
    p.write_text(dump_surface(torus7()), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "surfacemaps.cli", "verify", str(p)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["genus"] == 1
