"""Tests of the benchmark itself, at tiny sizes (seconds, not minutes).

    PYTHONPATH=src python3 -m pytest -q perfbench

They check the metric names against BENCHMARK.json, the failure counting,
and that the tracer restores every function it wrapped.
"""

import json
import os
import re
import subprocess
import sys

import pytest

import run
import workloads
from fisshom import cli, fissures, stochastic, verify
from fisshom.config import parse_config
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY_PIPELINE = """
run: {{base_seed: 7, output_dir: "{out}"}}
cell: {{resolution: 32, volume_resolution: 4, surface_resolution: 8}}
flow: {{shape: [4, 4, 4, 4]}}
transport: {{shape: [4, 4, 4, 4]}}
geometry: {{epsilon: 0.125}}
sweep: {{targets: [exchange], realizations: 3, epsilons: [0.1, 0.01]}}
"""
TINY_SIZES = (6, 12)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def tiny_setup():
    return workloads.bed_setup(7, cell_resolution=32)


def tiny_pipeline_ops(tmp_path, reference=None):
    reference = {} if reference is None else reference
    out = str(tmp_path / "out")
    cfg = parse_config(text=TINY_PIPELINE.format(out=out))
    code = cli.run(cfg, "all", out_dir=out, stream=open(os.devnull, "w"))
    return workloads.pipeline_ops(out, code, reference), out


# ---------------------------------------------------------------------------
# BENCHMARK.json and metric names


def test_spec_keys_and_limits(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert set(run.WORKLOADS) == {w["name"] for w in spec["workloads"]}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    for w in spec["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_end_to_end_names_match_spec(spec):
    record = {"passes": [{"wall_s": 2.0}, {"wall_s": 3.0}, {"wall_s": 2.5}],
              "setup_rss_mb": 100.0, "peak_rss_mb": 200.0}
    metrics = run.end_to_end(record, [1.0, 1.2, 0.9])
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    assert metrics["setup_s"] == 1.0 and metrics["wall_s"] == 2.5


def test_per_layer_names_match_spec(spec):
    names = set(Tracer().metrics()) | {"bench.trace_overhead_s"}
    assert names == {m["name"] for m in spec["per_layer"]}


# ---------------------------------------------------------------------------
# failure counting


def test_pipeline_ops_pass_on_a_healthy_run(tmp_path):
    ops, _ = tiny_pipeline_ops(tmp_path)
    assert [op.name for op in ops] == list(cli.STAGES)
    assert all(op.ok and op.correct for op in ops), \
        [op.detail for op in ops]


def test_reference_mismatch_is_a_wrong_result(tmp_path):
    _, out = tiny_pipeline_ops(tmp_path)
    scalars = workloads.read_pipeline_outputs(out)["scalars"]
    reference = dict(scalars)
    reference["k0"] *= 1.0 + 1e-6
    ops = workloads.pipeline_ops(out, 0, reference)
    bad = [op for op in ops if not op.ok]
    assert [op.name for op in bad] == ["cell"] and not bad[0].correct


def test_reported_stage_failure_and_exit_code(tmp_path):
    _, out = tiny_pipeline_ops(tmp_path)
    path = os.path.join(out, "manifest.json")
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["steps"][-1]["status"] = "check_failed"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    # the program reported the failure and exited 4: failed, not wrong
    ops = workloads.pipeline_ops(out, 4, {})
    assert [op.ok for op in ops] == [True] * 5 + [False]
    assert all(op.correct for op in ops)
    # an exit code that contradicts the statuses fails every stage
    ops = workloads.pipeline_ops(out, 0, {})
    assert not any(op.ok or op.correct for op in ops)


def test_repeat_digest_mismatch_fails_the_repeat():
    def record(digest):
        return {"passes": [{"ops": [{"name": "x", "digest": digest,
                                     "ok": True, "correct": True,
                                     "detail": []}]}]}
    records = [record("a"), record("a"), record("b")]
    run.check_repeats(records)
    assert [r["passes"][0]["ops"][0]["ok"] for r in records] == \
        [True, True, False]


def test_bed_workloads_pass_and_gates_fail(tiny_setup, monkeypatch):
    beds = workloads.Beds(7, sizes=TINY_SIZES, setup=tiny_setup)
    ops, wall = beds.run_pass()
    assert len(ops) == 10 and wall > 0
    assert all(op.ok for op in ops), [op.detail for op in ops]
    assert [op.name for op in ops][::5] == ["flow_pressure_ends.n6",
                                            "flow_pressure_ends.n12"]
    adv = workloads.BedsAdvective(7, sizes=TINY_SIZES, setup=tiny_setup)
    ops, _ = adv.run_pass()
    assert len(ops) == 2 and all(op.ok for op in ops)
    monkeypatch.setattr(workloads, "TRANSPORT_BALANCE_GATE", -1.0)
    ops, _ = adv.run_pass()
    assert not any(op.ok or op.correct for op in ops)


def test_mms_reference_mismatch_fails(tiny_setup, monkeypatch):
    beds = workloads.Beds(7, sizes=TINY_SIZES, setup=tiny_setup)
    beds.mms_reference = {str(n): 1.0 for n in TINY_SIZES}
    ops, _ = beds.run_pass()
    assert [op.name for op in ops if not op.ok] == \
        ["flow_dirichlet.n6", "flow_dirichlet.n12"]


# ---------------------------------------------------------------------------
# tracer


def test_tracer_wraps_every_namespace_and_restores(tiny_setup):
    originals = {
        (cli, "enumerate_fissures"): cli.enumerate_fissures,
        (verify, "enumerate_fissures"): verify.enumerate_fissures,
        (fissures, "enumerate_fissures"): fissures.enumerate_fissures,
        (stochastic.PhaseSequence, "alpha"): stochastic.PhaseSequence.alpha,
        (stochastic.FourierPath, "__call__"):
            vars(stochastic.FourierPath)["__call__"],
    }
    import scipy.sparse.linalg as spla
    originals[(spla, "splu")] = spla.splu
    plain, _ = workloads.Beds(7, sizes=TINY_SIZES,
                              setup=tiny_setup).run_pass()
    tracer = Tracer().install()
    try:
        wrapped = cli.enumerate_fissures
        assert wrapped is verify.enumerate_fissures
        assert wrapped is fissures.enumerate_fissures
        assert wrapped.__wrapped__ is originals[(fissures,
                                                 "enumerate_fissures")]
        traced, _ = workloads.Beds(7, sizes=TINY_SIZES,
                                   setup=tiny_setup).run_pass()
        m = tracer.metrics()
    finally:
        tracer.restore()
    for (owner, attr), fn in originals.items():
        assert vars(owner)[attr] is fn, attr
    # tracing changes no output
    assert [op.digest for op in plain] == [op.digest for op in traced]
    assert m["numerics.solve_sparse_calls"] == 10
    assert m["numerics.lu_fill"] > m["numerics.matrix_nnz"] > 0
    assert m["limit_flow.unknowns"] == 3 * 2 * (6 ** 3 + 12 ** 3)
    assert m["limit_flow.solve_limit_flow_s.n16"] == 0.0


def test_tracer_counts_pipeline_layers(tmp_path):
    tracer = Tracer().install()
    try:
        ops, _ = tiny_pipeline_ops(tmp_path)
    finally:
        tracer.restore()
    stages = {op.name: op.seconds for op in ops}
    m = tracer.metrics(stages, sum(stages.values()) + 0.5)
    assert m["fissures.tubes"] > 0 and m["fissures.eps_8_s"] > 0
    assert m["stochastic.phase_draws"] >= m["fissures.tubes"]
    assert m["stochastic.phase_draw_reuse"] >= 1.0
    assert m["fissure_transport.tube_solves"] > 0
    assert m["verify.exchange_s"] > m["verify.self_s"] >= 0
    assert m["cli.self_s"] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# command line


def test_refuses_to_run_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "beds", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
