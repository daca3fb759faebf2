"""The four benchmark workloads: seeded inputs, one op each, and its checks.

Every input surface is a seeded relabelling of a fixed surface.  A
relabelling keeps map counts, degree sets and automorphism group orders,
but it changes label order and therefore the search order, so the
expected values below are frozen and hold for every seed.  Each op draws a
fresh relabelling, so the median of a run is a median over many search
orders rather than one seed's luck.

A workload is driven as a closed loop by one client: next_input() (not
timed), op() (timed), check() (not timed).  op() reaches the package only
through its public functions, each call wrapped in a tracer span.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path
from typing import Any

from surfacemaps import (
    EnumerationCaps,
    SearchCapExceeded,
    SimplicialVertexMap,
    automorphisms,
    cli,
    construct,
    degree,
    degree_spectrum,
    dump_surface,
    dumps_json,
    enumerate_simplicial_maps,
    genus,
    is_simplicial,
    load_map,
    load_surface,
    map_to_dict,
    orient,
    sigma2_10v,
    tetrahedron,
    torus7,
    validate_closed_surface,
    validate_simplicial,
)


def relabel(surface, rng: random.Random):
    """A copy of surface under fresh labels in a seeded random order.

    The positive reference is pinned first, so the orientation class, and
    with it every degree, is the same as the input's.  Returns the copy and
    the old-to-new label mapping.
    """
    if surface.positive_reference is None:
        surface = surface.with_reference(surface.default_reference())
    slots = list(range(len(surface.vertices)))
    rng.shuffle(slots)
    prefix = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(2))
    mapping = {v: f"{prefix}{slot:03d}" for v, slot in zip(surface.vertices, slots)}
    return surface.relabel(mapping), mapping


class Workload:
    """One seeded input stream, the op run on each input, and its checks."""

    name = ""
    # Peak RSS is read after this many ops, so it measures a fixed amount of work.
    RSS_OPS = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(f"surfacemaps-bench/{self.name}/{seed}")
        self.workdir = workdir

    def setup(self) -> None:
        """Build the fixed inputs every op draws from (timed as setup_s)."""

    def next_input(self) -> Any:
        raise NotImplementedError

    def op(self, inp: Any, tr) -> Any:
        raise NotImplementedError

    def check(self, inp: Any, out: Any) -> list[str]:
        """Mismatches between out and the frozen expectations; empty when correct."""
        raise NotImplementedError

    def abandon(self) -> None:
        """Called after op() raised, so a stateful stream can start over."""

    def final_checks(self) -> list[list[str]]:
        """Whole-run checks made after timing, one mismatch list per check."""
        return []

    def backend_checks(self) -> list[list[str]]:
        """Compiled-versus-python comparisons, made only when both exist."""
        return []


def _compare(label: str, python_out: Any, compiled_out: Any) -> list[str]:
    return [] if python_out == compiled_out else [f"{label}: compiled and python backends differ"]


class Spectrum(Workload):
    """One full degree_spectrum sweep of a relabelled torus7 -> torus7 per op."""

    name = "spectrum"
    RSS_OPS = 20
    EXPECTED_MAPS = 27979
    EXPECTED_DEGREES = (0, 1)

    def setup(self) -> None:
        self.base = torus7()
        self.caps = EnumerationCaps()
        self.first = None

    def next_input(self):
        dom, _ = relabel(self.base, self.rng)
        cod, _ = relabel(self.base, self.rng)
        if self.first is None:
            self.first = (dom, cod)
        return dom, cod

    def op(self, inp, tr):
        report = tr.call("analysis.degree_spectrum", degree_spectrum, *inp, caps=self.caps)
        tr.count("analysis.maps_emitted", report.total_maps)
        tr.count("analysis.witnesses", len(report.witnesses))
        return report

    def check(self, inp, report) -> list[str]:
        dom, cod = inp
        bad = []
        if report.total_maps != self.EXPECTED_MAPS:
            bad.append(f"total_maps {report.total_maps} != {self.EXPECTED_MAPS}")
        if report.achievable_degrees != self.EXPECTED_DEGREES:
            bad.append(f"degrees {report.achievable_degrees} != {self.EXPECTED_DEGREES}")
        if report.partial or report.resume_token is not None:
            bad.append("unbudgeted sweep reported partial")
        if tuple(sorted(report.witnesses)) != report.achievable_degrees:
            bad.append("witness keys differ from the degree set")
        for d, w in report.witnesses.items():
            if w.domain != dom or w.codomain != cod:
                bad.append(f"witness {d} is not a map between the inputs")
            elif not is_simplicial(w) or degree(w).degree != d:
                bad.append(f"witness {d} does not re-certify to degree {d}")
        return bad

    def backend_checks(self) -> list[list[str]]:
        def run(backend):
            r = degree_spectrum(*self.first, caps=self.caps, backend=backend)
            return r.total_maps, r.achievable_degrees, {d: dict(w.assignment) for d, w in r.witnesses.items()}

        return [_compare("spectrum", run("python"), run("compiled"))]


class Resume(Workload):
    """Budgeted torus7 -> torus7 enumeration, one resumed 1000-map chunk per op.

    When a relabelled pair is exhausted the next op starts a fresh pair.
    Each finished pair is checked against the frozen map set (in the
    canonical labels); the first one is also compared, after timing,
    with the unchunked enumeration of the same pair.
    """

    name = "resume"
    RSS_OPS = 280
    CHUNK = 1000
    EXPECTED_MAPS = 27979
    # sha256 of the sorted torus7 -> torus7 assignments in canonical labels.
    EXPECTED_DIGEST = "ca1a8dad2bb495008abb247e30b67b0034e1f20aebda2b8277851d84f5f4cf7a"

    def setup(self) -> None:
        self.base = torus7()
        self.caps = EnumerationCaps(max_maps=self.CHUNK)
        self.pair = None
        self.first_pair = None
        self.first_sequence: list[tuple[str, ...]] | None = None

    def _start_pair(self) -> None:
        dom, dom_map = relabel(self.base, self.rng)
        cod, cod_map = relabel(self.base, self.rng)
        inverse = {new: old for old, new in cod_map.items()}
        # Canonical key of a map: images of the base vertices, in base labels.
        order = [dom_map[v] for v in self.base.vertices]
        self.pair = (dom, cod, inverse, order)
        self.token = None
        self.keys: list[tuple[str, ...]] = []
        self.sequence: list[tuple[str, ...]] = []
        self.recording = self.first_pair is None
        if self.recording:
            self.first_pair = (dom, cod)

    def next_input(self):
        if self.pair is None:
            self._start_pair()
        return self.pair[0], self.pair[1], self.token

    def op(self, inp, tr):
        dom, cod, token = inp
        try:
            maps = tr.call("analysis.enumerate", enumerate_simplicial_maps, dom, cod, self.caps, resume_token=token)
            next_token = None
        except SearchCapExceeded as exc:
            if exc.reason != "map-budget":
                raise
            maps, next_token = list(exc.partial_maps), exc.resume_token
        tr.count("analysis.maps_emitted", len(maps))
        return maps, next_token

    def check(self, inp, out) -> list[str]:
        dom, cod, inverse, order = self.pair
        maps, next_token = out
        bad = []
        if next_token is not None and len(maps) != self.CHUNK:
            bad.append(f"budgeted chunk has {len(maps)} maps, expected {self.CHUNK}")
        if next_token is None and not 0 < len(maps) <= self.CHUNK:
            bad.append(f"final chunk has {len(maps)} maps")
        if any(m.domain != dom or m.codomain != cod for m in maps):
            bad.append("chunk holds a map between other surfaces")
        self.keys.extend(tuple(inverse[m.assignment[v]] for v in order) for m in maps)
        if self.recording:
            self.sequence.extend(tuple(m.assignment[v] for v in dom.vertices) for m in maps)
        self.token = next_token
        if next_token is None:
            bad.extend(self._finish_pair())
        if bad or next_token is None:
            self.pair = None
        return bad

    def _finish_pair(self) -> list[str]:
        bad = []
        keys = sorted(self.keys)
        if len(keys) != self.EXPECTED_MAPS or len(set(keys)) != len(keys):
            bad.append(f"chunks hold {len(keys)} maps ({len(set(keys))} distinct), expected {self.EXPECTED_MAPS}")
        digest = hashlib.sha256("\n".join(" ".join(k) for k in keys).encode()).hexdigest()
        if digest != self.EXPECTED_DIGEST:
            bad.append("resumed chunks do not concatenate to the torus7 -> torus7 map set")
        if self.recording and not bad:
            self.first_sequence = self.sequence
        return bad

    def abandon(self) -> None:
        self.pair = None

    def final_checks(self) -> list[list[str]]:
        if self.first_sequence is None:
            return []
        dom, cod = self.first_pair
        whole = enumerate_simplicial_maps(dom, cod, EnumerationCaps())
        unchunked = [tuple(m.assignment[v] for v in dom.vertices) for m in whole]
        if unchunked != self.first_sequence:
            return [["resumed chunks differ from the unchunked enumeration"]]
        return [[]]

    def backend_checks(self) -> list[list[str]]:
        def run(backend):
            try:
                enumerate_simplicial_maps(*self.first_pair, self.caps, backend=backend)
            except SearchCapExceeded as exc:
                return [dict(m.assignment) for m in exc.partial_maps], exc.resume_token
            return None

        return [_compare("resume", run("python"), run("compiled"))]


class Automorphisms(Workload):
    """One op is automorphisms() on every surface of a fixed ladder, each freshly relabelled.

    The ladder runs from 4 to 21 vertices.  Surfaces whose search time
    swings 5-12x with the labelling (construct (1,2), (4,1), (2,3), (5,1))
    are left out: with about a hundred ops per run they would make the
    run median depend on the seed more than on the code.
    """

    name = "automorphisms"
    RSS_OPS = 25
    # (name, group order); orders are invariant under relabelling.
    LADDER = (
        ("tetrahedron", 24),
        ("torus7", 42),
        ("sigma2_10v", 3),
        ((2, 2), 2),
        ((3, 1), 2),
        ((3, 0), 2),
        ((3, 2), 1),
        ((3, 3), 1),
        ((4, 2), 1),
    )

    def setup(self) -> None:
        fixed = {"tetrahedron": tetrahedron, "torus7": torus7, "sigma2_10v": lambda: sigma2_10v().surface}
        self.surfaces = [
            fixed[key]() if isinstance(key, str) else construct(*key).surface for key, _ in self.LADDER
        ]
        self.first = None

    def next_input(self):
        inputs = [relabel(s, self.rng)[0] for s in self.surfaces]
        if self.first is None:
            self.first = inputs
        return inputs

    def op(self, inp, tr):
        groups = [tr.call("analysis.automorphisms", automorphisms, s) for s in inp]
        tr.count("analysis.automorphisms.found", sum(len(g) for g in groups))
        return groups

    def check(self, inp, groups) -> list[str]:
        bad = []
        for (key, order), s, group in zip(self.LADDER, inp, groups):
            if len(group) != order:
                bad.append(f"{key}: {len(group)} automorphisms, expected {order}")
                continue
            images = {tuple(f.assignment[v] for v in s.vertices) for f in group}
            if len(images) != order or tuple(s.vertices) not in images:
                bad.append(f"{key}: group has repeats or lacks the identity")
        return bad

    def backend_checks(self) -> list[list[str]]:
        s = self.first[1]
        n = len(s.vertices)
        caps = EnumerationCaps(max_domain_vertices=n, max_codomain_vertices=n, bijective_only=True)

        def run(backend):
            return [dict(f.assignment) for f in enumerate_simplicial_maps(s, s, caps, backend=backend)]

        return [_compare("automorphisms", run("python"), run("compiled"))]


class Certify(Workload):
    """construct(g, d) for g = 1..6 at one d, each followed by a certification of a relabelled copy.

    Per (g, d): construct, relabel domain and codomain, validate, orient,
    genus, build the map, check it is simplicial, take its degree, dump
    both to files, load them back and run the CLI verifier on them.  Ops
    cycle through d = -8..8.  One op covers a whole column of genera so that
    a single short pause of the host does not become the run's tail.  No
    search happens here, and every relabelled surface is new to the
    package's caches.
    """

    name = "certify"
    RSS_OPS = 85
    GENERA = tuple(range(1, 7))
    DEGREES = tuple(range(-8, 9))

    def setup(self) -> None:
        self.next_column = 0

    def next_input(self):
        d = self.DEGREES[self.next_column % len(self.DEGREES)]
        self.next_column += 1
        # The relabellings are drawn here but applied inside the op, to its own output.
        return d, tuple(self.rng.getrandbits(64) for _ in self.GENERA)

    def op(self, inp, tr):
        d, relabel_seeds = inp
        return [self._certify(g, d, random.Random(seed), tr) for g, seed in zip(self.GENERA, relabel_seeds)]

    def _paths(self, g: int) -> tuple[Path, Path]:
        return self.workdir / f"domain{g}.json", self.workdir / f"map{g}.json"

    def _certify(self, g, d, rng, tr):
        surface_path, map_path = self._paths(g)
        bundle = tr.call("constructions.construct", construct, g, d)
        tr.count("constructions.facets_built", len(bundle.surface.facets))
        dom, dom_map = relabel(bundle.surface, rng)
        cod, cod_map = relabel(bundle.vertex_map.codomain, rng)
        assignment = {dom_map[v]: cod_map[w] for v, w in bundle.vertex_map.assignment.items()}
        validity = tr.call("surface.validate", validate_closed_surface, dom)
        tr.call("surface.orient", orient, dom)
        g_found = tr.call("surface.genus", genus, dom)
        vmap = tr.call("maps.build", SimplicialVertexMap.build, dom, cod, assignment)
        simplicial = tr.call("maps.validate_simplicial", validate_simplicial, vmap)
        report = tr.call("maps.degree", degree, vmap)

        def dump():
            surface_text, map_text = dump_surface(dom), dumps_json(map_to_dict(vmap))
            surface_path.write_text(surface_text, encoding="utf-8")
            map_path.write_text(map_text, encoding="utf-8")
            return len(surface_text.encode()) + len(map_text.encode())

        tr.count("formats.bytes", tr.call("formats.dump", dump))
        loaded = tr.call("formats.load", lambda: (load_surface(surface_path), load_map(map_path)))
        code, stdout = tr.call("cli.main", self._verify, g)
        tr.count("cli.stdout_bytes", len(stdout.encode()))
        return bundle, dom, vmap, validity, g_found, simplicial, report, loaded, code, stdout

    def _verify(self, g: int) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", *map(str, self._paths(g))])
        return code, out.getvalue()

    def check(self, inp, outs) -> list[str]:
        d, _ = inp
        bad = []
        for g, out in zip(self.GENERA, outs):
            bad.extend(f"(g={g}, d={d}): {b}" for b in self._check(g, d, out))
        return bad

    def _check(self, g, d, out) -> list[str]:
        bundle, dom, vmap, validity, g_found, simplicial, report, loaded, code, stdout = out
        bad = []
        if bundle.report.degree != d:
            bad.append(f"construct certified degree {bundle.report.degree}")
        if not validity.ok or not simplicial.ok:
            bad.append("relabelled surface or map failed validation")
        if g_found != g:
            bad.append(f"genus {g_found}")
        if report.degree != d:
            bad.append(f"relabelled map has degree {report.degree}")
        if loaded != (dom, vmap):
            bad.append("formats round trip changed the surface or map")
        if code != 0:
            bad.append(f"cli verify exited {code}")
        else:
            doc = json.loads(stdout)
            if not doc["ok"] or doc["genus"] != g or doc["degree_report"]["degree"] != d:
                bad.append("cli verify reported other genus or degree")
        if self._verify(g) != (code, stdout):
            bad.append("cli verify output is not byte-identical across calls")
        return bad


WORKLOADS = {w.name: w for w in (Spectrum, Resume, Automorphisms, Certify)}
