"""Self-tests of the benchmark harness.

Run from the root of a checkout with:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

from run import run_loop, tail_percentile  # noqa: E402
from tracing import Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, Spectrum  # noqa: E402


def _fresh(name: str, seed: int, tmp_path: Path):
    work = WORKLOADS[name](seed, tmp_path)
    work.setup()
    return work


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    a, b = _fresh(name, 7, tmp_path), _fresh(name, 7, tmp_path)
    assert [a.next_input() for _ in range(3)] == [b.next_input() for _ in range(3)]


def _run_ops(work, count: int) -> list[list[str]]:
    results = []
    for _ in range(count):
        inp = work.next_input()
        results.append(work.check(inp, work.op(inp, Tracer())))
    return results


@pytest.mark.parametrize("name, ops", [("spectrum", 1), ("resume", 28), ("automorphisms", 1), ("certify", 4)])
def test_two_seeds_relabel_differently_with_equal_expectations(name, ops, tmp_path):
    a, b = _fresh(name, 1, tmp_path), _fresh(name, 2, tmp_path)
    assert a.next_input() != b.next_input()
    assert _run_ops(a, ops) == [[]] * ops
    assert _run_ops(b, ops) == [[]] * ops
    assert [x for x in a.final_checks() if x] == []


def test_resume_chunks_cover_one_pair_then_start_another(tmp_path):
    work = _fresh("resume", 3, tmp_path)
    first = work.next_input()
    _run_ops(work, 28)
    assert work.first_sequence is not None and len(work.first_sequence) == 27979
    assert work.next_input()[:2] != first[:2]


def test_wrong_expectation_is_a_failed_op_not_a_crash(tmp_path):
    class WrongSpectrum(Spectrum):
        EXPECTED_MAPS = 1

    work = WrongSpectrum(1, tmp_path)
    work.setup()
    loop = run_loop(work, 0, None)
    assert (loop["attempted"], loop["failed"]) == (1, 1)
    assert loop["plain"] == [] and "total_maps" in loop["problems"][0]


def test_raising_op_is_a_failed_op(tmp_path):
    class Broken(Spectrum):
        def op(self, inp, tr):
            raise ValueError("boom")

    work = Broken(1, tmp_path)
    work.setup()
    loop = run_loop(work, 0, None)
    assert (loop["attempted"], loop["failed"]) == (1, 1)
    assert "boom" in loop["problems"][0]


@pytest.mark.parametrize(
    "n, percentile, value",
    [(1000, 99.0, 990), (999, 98.998998998999, 989), (100, 90.0, 90), (50, 80.0, 40), (20, 50.0, 10), (19, 100.0, 19), (1, 100.0, 1)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, percentile, value):
    samples = [float(i) for i in range(n, 0, -1)]
    got_percentile, got_value = tail_percentile(samples)
    assert got_percentile == pytest.approx(percentile) and got_value == value
    assert sum(s > got_value for s in samples) == (10 if n >= 20 else 0)


def test_traced_loop_reports_every_per_layer_metric(tmp_path):
    work = _fresh("certify", 1, tmp_path)
    tracer = Tracer()
    loop = run_loop(work, 0.5, tracer)
    assert loop["failed"] == 0 and loop["traced"]
    metrics = per_layer_metrics(tracer, 0.5, 0.0)
    assert metrics["constructions.construct.calls"]["value"] == len(work.GENERA) * len(loop["traced"])
    assert metrics["cli.stdout_bytes"]["value"] > 0
    assert all(set(m) == {"value", "unit"} for m in metrics.values())
