"""Tests for the span recorder and the per-layer metrics built on it.

Run from the root of the repository:

    python3 -m pytest -q bench/tests
"""

import os
import random
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.load_library()

import gen  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def traced(wl, pool):
    """One traced pass over ``pool``; the tracer and the per-layer metrics."""
    wl.pool = pool
    plain = run.measure(wl, 0, passes=1)
    t = tracer.Tracer()
    t.install()
    try:
        done = run.measure(wl, 0, op=t.span(tracer.OP_SPAN, wl.op), tracer=t, passes=1)
    finally:
        t.uninstall()
    assert all(e is None for e in done.error), done.error
    return t, run.layer_metrics(wl, t, plain, done)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("work"))


def small(name, workdir):
    wl = workloads.WORKLOADS[name](3, workdir)
    return wl, wl.pool[:5]


def test_self_times_of_one_op_sum_to_its_wall_time(workdir):
    wl = workloads.CoupleAnalysis(3, workdir)
    tiny = gen.filtered_complex(random.Random(1), [(0, (2,)), (1, ())], 2)
    t, _ = traced(wl, [tiny])
    self_t = t.self_times()
    ops = t.op_times()
    assert list(ops) == [0]
    inside = sum(s for s, op in zip(self_t, t.op) if op == 0)
    # the tracer's own work inside the op, charged to no span
    overhead = sum(o for o, op, p in zip(t.overhead, t.op, t.parent) if op == 0 and p >= 0)
    assert 0 < overhead < ops[0]
    assert inside + overhead == pytest.approx(ops[0], rel=1e-9, abs=1e-9)
    assert t.summary()[0]["trace"] == pytest.approx(overhead, rel=1e-9)
    assert len(t.name) > 100


def test_uninstall_restores_the_library(workdir):
    from specseq import excouple, zlinalg

    before = (zlinalg.Hom.__init__, zlinalg.smith_normal_form, excouple.filtrations)
    t = tracer.Tracer()
    t.install()
    assert zlinalg.smith_normal_form is not before[1]
    assert excouple.filtrations is not before[2]
    t.uninstall()
    assert (zlinalg.Hom.__init__, zlinalg.smith_normal_form, excouple.filtrations) == before


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_and_repeat_ratios_repeat_exactly(name, workdir):
    wl, pool = small(name, workdir)
    _, first = traced(wl, pool)
    _, second = traced(wl, pool)
    exact = {k: v for k, v in first.items() if v[1] in ("count", "ratio", "bits", "bytes")
             and k != "trace.overhead_ratio"}
    assert exact
    assert exact == {k: second[k] for k in exact}


def test_layers_a_workload_does_not_reach_count_zero(workdir):
    wl, pool = small("lattice_ladder", workdir)
    _, m = traced(wl, pool)
    assert m["zlinalg.snf_calls"][0] > 0
    for k, (value, unit) in m.items():
        if k.split(".")[0] in ("zdiagrams", "spectral", "excouple", "solvers", "cli"):
            assert value == 0, k

    wl, pool = small("couple_analysis", workdir)
    _, m = traced(wl, pool)
    assert m["zlinalg.hom_init_calls"][0] > 0 and m["excouple.abutments_calls"][0] > 0
    assert m["solvers.calls"][0] == 0 and m["cli.self_s"][0] == 0
    assert all(m["zlinalg.op_s.n%d" % n][0] == 0 for n in gen.LADDER_SIZES)


def test_cli_session_reaches_solvers_and_cli(workdir):
    wl = workloads.CliSession(3, workdir)
    pool = [item for item in wl.pool if item["origin"] == "session"]
    _, m = traced(wl, pool)
    assert m["solvers.calls"][0] > 0
    assert m["cli.self_s"][0] > 0 and m["cli.report_bytes"][0] > 0
