#!/usr/bin/env python3
"""Compare the compiled and pure-Python enumeration backends.

Runs the same searches on both backends, checks that the results are
identical, and reports best-of-N wall times with the speedup factor.
The compiled kernel is optional at build time, so this script is also the
quickest way to see whether it is active in the current environment; when
it is not built, the script says so and times the Python backend alone.

Two kinds of rows:

  enumerate  full enumerate_simplicial_maps() call, map objects included
  spectrum   degree_spectrum() call, lean vector-level degree tally

The compiled kernel accelerates the backtracking search itself.  Both
backends return index vectors, and the Python code they share does the
rest: building the map objects (one bulk pass that checks the search
orders once per sweep and each vector's length and index range) and the
degree tally.  Speedups are therefore most visible on searches whose tree
is large relative to the output.
"""

from __future__ import annotations

import argparse
import time

from surfacemaps import (
    available_backends,
    build_sum_low,
    degree_spectrum,
    enumerate_simplicial_maps,
    EnumerationCaps,
    sigma2_10v,
    tetrahedron,
    torus7,
)


def cases(full: bool):
    torus = torus7()
    plain = EnumerationCaps()
    yield "enumerate", "tetrahedron -> torus7", tetrahedron(), torus, plain
    yield "enumerate", "torus7 -> torus7", torus, torus, plain
    yield "spectrum", "torus7 -> torus7", torus, torus, plain
    yield "spectrum", "sigma2_10v -> torus7", sigma2_10v().surface, torus, plain
    if full:
        eleven = build_sum_low(2, 1).surface
        wide = EnumerationCaps(max_domain_vertices=11, max_codomain_vertices=7)
        yield "spectrum", "sum_low(2,1) -> torus7", eleven, torus, wide


def run(repeats: int, full: bool) -> int:
    backends = [b for b in ("python", "compiled") if b in available_backends()]
    if "compiled" not in backends:
        print("compiled backend not built; timing the python backend only")
    rows = list(cases(full))
    width = max(len(name) for _, name, *_ in rows)
    header = f"{'mode':<9}  {'case':<{width}}  {'maps':>8}  {'python':>9}"
    if len(backends) == 2:
        header += f"  {'compiled':>9}  speedup"
    print(header)
    for mode, name, dom, cod, caps in rows:
        timings = {}
        results = {}
        for backend in backends:
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                if mode == "enumerate":
                    out = enumerate_simplicial_maps(dom, cod, caps, backend=backend)
                    key = (len(out), out)
                else:
                    rep = degree_spectrum(dom, cod, caps, backend=backend)
                    key = (rep.total_maps, rep)
                best = min(best, time.perf_counter() - t0)
            timings[backend] = best
            results[backend] = key
        if len(backends) == 2 and results["python"] != results["compiled"]:
            print(f"{mode} {name}: BACKEND MISMATCH")
            return 1
        n = results["python"][0]
        py = timings["python"]
        line = f"{mode:<9}  {name:<{width}}  {n:>8}  {py:>8.3f}s"
        if len(backends) == 2:
            cy = timings["compiled"]
            line += f"  {cy:>8.3f}s  {py / cy:>6.1f}x"
        print(line)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="benchmark the enumeration backends against each other"
    )
    parser.add_argument("--repeats", type=int, default=1, help="take the best of N runs")
    parser.add_argument(
        "--full", action="store_true", help="include the slow 11-vertex domain case"
    )
    args = parser.parse_args()
    return run(args.repeats, args.full)


if __name__ == "__main__":
    raise SystemExit(main())
