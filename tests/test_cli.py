"""Config validation, staged runs, manifest integrity, exit codes."""

import ast
import hashlib
import inspect
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from fisshom import __version__, cli, fissure_transport, verify
from fisshom.cli import gate, main, run
from fisshom.config import ConfigError, default_config, parse_config
from fisshom.limit_flow import series_gap
from fisshom.limit_transport import mass_balance_gap

SMALL = """
run: {{base_seed: 7, output_dir: "{out}"}}
cell: {{resolution: 64}}
flow: {{shape: [6, 5, 6, 6]}}
transport: {{shape: [5, 4, 5, 5]}}
geometry: {{epsilon: 0.125}}
sweep: {{targets: [exchange], realizations: 3, epsilons: [0.1, 0.01]}}
"""


def small_config(out_dir):
    return parse_config(text=SMALL.format(out=out_dir))


# ---------------------------------------------------------------------------
# parsing and validation


def test_defaults_from_empty_config():
    cfg = default_config()
    assert cfg.base_seed == 7
    assert cfg.theta == 0.5
    assert cfg.output_dir == "out"
    assert cfg.sweep["realizations"] == 20
    assert cfg.aperture.lower_bound == pytest.approx(0.3)
    assert cfg.flow["bc_kind"] == "pressure_ends"


def test_theta_outside_model_range_rejected():
    with pytest.raises(ConfigError, match=r"geometry\.theta.*\(0, 2/3\)"):
        parse_config(text="geometry:\n  theta: 0.7\n")
    with pytest.raises(ConfigError, match=r"geometry\.theta"):
        parse_config(text="geometry:\n  theta: 0.0\n")


def test_duplicate_key_reported_with_line():
    with pytest.raises(ConfigError, match=r"duplicate key 'theta'.*line 3"):
        parse_config(text="geometry:\n  theta: 0.5\n  theta: 0.4\n")


def test_unknown_section_and_key():
    with pytest.raises(ConfigError, match="unknown section 'turbulence'"):
        parse_config(text="turbulence:\n  x: 1\n")
    with pytest.raises(ConfigError, match=r"flow\.slip: unknown key"):
        parse_config(text="flow:\n  slip: 3\n")
    with pytest.raises(ConfigError, match=r"flow\.slip_gamma: unknown key"):
        parse_config(text="flow:\n  slip_gamma: 0.05\n")


def test_value_errors_carry_key_path():
    with pytest.raises(ConfigError, match=r"run\.base_seed"):
        parse_config(text="run:\n  base_seed: -1\n")
    with pytest.raises(ConfigError, match=r"sweep\.epsilons.*decreasing"):
        parse_config(text="sweep:\n  epsilons: [0.01, 0.1]\n")
    with pytest.raises(ConfigError, match=r"process\.aperture.*equal length"):
        parse_config(text="process:\n  aperture:\n    amplitudes: [0.1]\n"
                          "    frequencies_per_length: [1.0, 2.0]\n")
    with pytest.raises(ConfigError, match=r"flow\.bc_kind"):
        parse_config(text="flow:\n  bc_kind: slippery\n")
    with pytest.raises(ConfigError, match=r"geometry\.epsilon.*finite"):
        parse_config(text="geometry:\n  epsilon: .nan\n")
    with pytest.raises(ConfigError, match=r"flow\.p_top.*finite"):
        parse_config(text="flow:\n  p_top: .nan\n")
    with pytest.raises(ConfigError, match=r"transport\.bc_plus.*finite"):
        parse_config(text="transport:\n  bc_plus: -.inf\n")
    with pytest.raises(ConfigError, match=r"flow\.shape.*4 entries"):
        parse_config(text="flow:\n  shape: 8\n")
    with pytest.raises(ConfigError, match=r"flow\.shape\[2\].*>= 3"):
        parse_config(text="flow:\n  shape: [8, 8, 2, 8]\n")
    with pytest.raises(ConfigError, match=r"transport\.shape.*4 entries"):
        parse_config(text="transport:\n  shape: 8\n")
    with pytest.raises(ConfigError, match=r"flow\.k_plus\[2\].*> 0"):
        parse_config(text="flow:\n  k_plus: [1.3, 1.3, -0.9]\n")
    with pytest.raises(ConfigError, match=r"flow\.k_minus\[0\].*> 0"):
        parse_config(text="flow:\n  k_minus: [0, 0.8, 1.1]\n")
    with pytest.raises(ConfigError, match=r"transport\.diff_plus\[1\].*> 0"):
        parse_config(text="transport:\n  diff_plus: [1, 0, 1]\n")
    with pytest.raises(ConfigError, match=r"transport\.diff_minus\[2\].*> 0"):
        parse_config(text="transport:\n  diff_minus: [0.8, 0.8, -1.2]\n")
    with pytest.raises(ConfigError,
                       match=r"transport\.surface_diffusion\[0\].*> 0"):
        parse_config(text="transport:\n  surface_diffusion: [-0.2, 0.3]\n")


def test_centerline_takes_no_range_bounds():
    # build_path reads no range bounds for the centerline path
    for key in ("lower_bound", "upper_bound"):
        with pytest.raises(ConfigError,
                           match=rf"process\.centerline\.{key}: unknown key"):
            parse_config(text=f"process:\n  centerline:\n    {key}: 0.9\n")
    cfg = parse_config(text="process:\n  centerline:\n    deriv_bound: 1.0\n")
    assert cfg.centerline.deriv_bound == 1.0


def test_yaml_syntax_error_carries_line():
    with pytest.raises(ConfigError, match="not valid YAML"):
        parse_config(text="geometry: [\n")


def test_overrides_pass_through_validation():
    cfg = parse_config(text="", overrides={"run": {"base_seed": 9}})
    assert cfg.base_seed == 9
    # process seeds derive from the base seed
    assert cfg.aperture.seed != default_config().aperture.seed
    with pytest.raises(ConfigError, match=r"cell\.resolution"):
        parse_config(text="", overrides={"cell": {"resolution": 8}})


def test_retired_cell_keys_are_checked_and_dropped():
    with pytest.raises(ConfigError, match=r"cell\.volume_resolution.*>= 4"):
        parse_config(text="cell:\n  volume_resolution: 2\n")
    with pytest.raises(ConfigError, match=r"cell\.surface_resolution.*>= 8"):
        parse_config(text="cell:\n  surface_resolution: 2\n")
    cfg = parse_config(text="cell: {volume_resolution: 6, "
                            "surface_resolution: 16}\n")
    assert cfg.config_hash() == default_config().config_hash()


def test_config_hash_tracks_content():
    a = default_config().config_hash()
    b = default_config().config_hash()
    c = parse_config(text="geometry:\n  epsilon: 0.125\n").config_hash()
    assert a == b
    assert a != c
    assert len(a) == 64


# ---------------------------------------------------------------------------
# staged runs


def test_all_stages_write_expected_files(tmp_path):
    out = tmp_path / "out"
    cfg = small_config(out)
    assert run(cfg, "all") == 0
    expected = {"cell.json", "flow.json", "flow_interface.csv",
                "transport.json", "transport_traces.csv",
                "fissure_census.csv", "fissure.json", "fissure_profile.csv",
                "ergodic.json", "sweep_exchange.csv", "sweep_exchange.json",
                "manifest.json"}
    assert {p.name for p in out.iterdir()} == expected

    man = json.loads((out / "manifest.json").read_text())
    assert man["config_sha256"] == cfg.config_hash()
    assert man["package_version"] == __version__
    assert [s["status"] for s in man["steps"]] == ["ok"] * 6
    # the process peak so far, so it never falls from one step to the next
    peaks = [s["peak_rss_mb"] for s in man["steps"]]
    assert peaks[0] > 0 and peaks == sorted(peaks)
    # every data file indexed with its checksum
    assert set(man["files"]) == expected - {"manifest.json"}
    for name, digest in man["files"].items():
        body = (out / name).read_bytes()
        assert hashlib.sha256(body).hexdigest() == digest


def test_reruns_are_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run(small_config(out_a), "all")
    run(small_config(out_b), "all")
    names = sorted(p.name for p in out_a.iterdir() if p.name != "manifest.json")
    assert names
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_single_stage_with_dependencies(tmp_path):
    out = tmp_path / "out"
    cfg = small_config(out)
    assert run(cfg, "flow") == 0
    man = json.loads((out / "manifest.json").read_text())
    assert [s["name"] for s in man["steps"]] == ["cell", "flow"]
    flow = json.loads((out / "flow.json").read_text())
    assert flow["route"] == "separable"
    assert flow["residual"] <= 1e-9
    assert flow["flux_continuity_gap"] <= 1e-8
    assert run(cfg, "transport") == 0
    man = json.loads((out / "manifest.json").read_text())
    assert [s["name"] for s in man["steps"]] == ["cell", "transport"]
    transport = json.loads((out / "transport.json").read_text())
    assert transport["route"] == "separable"
    assert transport["iterations"] == 0


def test_solver_error_skips_dependents(tmp_path, monkeypatch):
    # the flow model needs three vertical cells per bed; the schema rejects
    # two, so the config is edited past it to reach the solver's own check,
    # which must surface as a stage failure, not a crash
    cfg = small_config(tmp_path / "out")
    broken_flow = replace(cfg, flow={**cfg.flow, "shape": [4, 4, 2, 2]})
    # an indefinite bed permeability fails the cell stage's SPD check
    broken_cell = replace(cfg, flow={**cfg.flow, "k_plus": [-1.0, 1.0, 1.0]})
    rest = {"fissure": "ok", "ergodic": "ok", "sweep": "ok"}
    for broken, code, statuses in (
            # transport reads nothing the flow stage computes, so it runs
            (broken_flow, 3, {"cell": "ok", "flow": "solver_error",
                              "transport": "ok", **rest}),
            (broken_cell, 4, {"cell": "check_failed", "flow": "skipped",
                              "transport": "skipped", **rest})):
        out = tmp_path / f"out{code}"
        assert run(broken, "all", out_dir=str(out)) == code
        man = json.loads((out / "manifest.json").read_text())
        assert {s["name"]: s["status"] for s in man["steps"]} == statuses

    # a solver error in the cell stage skips both of its dependents
    def singular(ctx, outdir):
        raise np.linalg.LinAlgError("singular cell matrix")

    monkeypatch.setitem(cli._STAGE_TABLE, "cell",
                        (singular, (), "fails"))
    out = tmp_path / "out_cell"
    assert run(cfg, "transport", out_dir=str(out)) == 3
    man = json.loads((out / "manifest.json").read_text())
    assert [(s["name"], s["status"]) for s in man["steps"]] == [
        ("cell", "solver_error"), ("transport", "skipped")]
    assert run(cfg, "flow", out_dir=str(out)) == 3
    man = json.loads((out / "manifest.json").read_text())
    assert [(s["name"], s["status"]) for s in man["steps"]] == [
        ("cell", "solver_error"), ("flow", "skipped")]
    assert man["steps"][0]["detail"] == "singular cell matrix"


def test_sweep_gate_failure_returns_four(tmp_path):
    out = tmp_path / "out"
    # two realizations over near-identical scales: this seed deterministically
    # breaks the strict median decrease
    cfg = parse_config(text=f"""
run: {{base_seed: 6, output_dir: "{out}"}}
sweep: {{targets: [exchange], realizations: 2, epsilons: [0.1, 0.09]}}
""")
    assert run(cfg, "sweep") == 4
    man = json.loads((out / "manifest.json").read_text())
    step = man["steps"][0]
    assert step["status"] == "check_failed"
    assert "strictly decreasing" in step["detail"]
    # partial outputs are still written and indexed
    assert set(step["outputs"]) == {"sweep_exchange.csv",
                                    "sweep_exchange.json"}
    assert (out / "sweep_exchange.csv").exists()


def test_crashed_stage_still_writes_manifest(tmp_path, monkeypatch):
    def broken(ctx, outdir):
        raise TypeError("unexpected argument")

    monkeypatch.setitem(cli._STAGE_TABLE, "cell", (broken, (), "crashes"))
    out = tmp_path / "out"
    cfg = small_config(out)
    assert run(cfg, "flow") == 3
    man = json.loads((out / "manifest.json").read_text())
    steps = {s["name"]: s for s in man["steps"]}
    assert [s["status"] for s in man["steps"]] == ["crashed", "skipped"]
    assert steps["cell"]["detail"] == "TypeError: unexpected argument"
    assert man["files"] == {}


def test_nan_gate_value_fails_the_stage(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "mass_balance_gap", lambda sol: float("nan"))
    out = tmp_path / "out"
    assert run(small_config(out), "transport") == 4
    man = json.loads((out / "manifest.json").read_text())
    steps = {s["name"]: s for s in man["steps"]}
    assert [s["status"] for s in man["steps"]] == ["ok", "check_failed"]
    assert steps["transport"]["detail"].startswith(
        "transport balance gap nan")


def test_run_rejects_unknown_subcommand(tmp_path):
    with pytest.raises(ValueError, match="unknown subcommand"):
        run(small_config(tmp_path / "out"), "frobnicate")


# ---------------------------------------------------------------------------
# command line entry


def test_main_config_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("geometry:\n  theta: 0.7\n")
    assert main(["cell", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "geometry.theta" in err
    assert main(["cell", "--config", str(tmp_path / "missing.yaml")]) == 2


def test_main_config_error_writes_manifest(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("geometry: {theta: 0.9}\n")
    out = tmp_path / "D"
    assert main(["all", "--config", str(bad), "--out", str(out)]) == 2
    assert "geometry.theta" in capsys.readouterr().err
    man = json.loads((out / "manifest.json").read_text())
    (step,) = man["steps"]
    assert step["name"] == "config" and step["status"] == "config_error"
    assert "geometry.theta" in step["detail"]
    assert man["subcommand"] == "all" and man["files"] == {}
    assert man["config_sha256"] is None
    # a section that a flag overrides must still be a mapping
    bad.write_text("run: 5\n")
    assert main(["cell", "--config", str(bad), "--out", str(out)]) == 2
    assert "run: expected a mapping, got 5" in capsys.readouterr().err
    (step,) = json.loads((out / "manifest.json").read_text())["steps"]
    assert step["status"] == "config_error"


def test_main_runs_stage_with_flag_overrides(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.yaml"
    cfgfile.write_text("cell: {resolution: 48}\n")
    out = tmp_path / "results"
    code = main(["cell", "--config", str(cfgfile), "--out", str(out),
                 "--resolution", "64", "--seed", "3"])
    assert code == 0
    report = json.loads((out / "cell.json").read_text())
    assert report["resolution"] == 64
    assert report["k0"] == pytest.approx(0.035144, abs=5e-4)
    assert report["k0_route"] == "dst1" and report["k0_residual"] <= 1e-9
    assert set(report) == {
        "resolution", "k0", "k0_identity_gap", "k0_residual", "k0_route",
        "drag", "permeability_plus", "permeability_minus", "diffusion_plus",
        "diffusion_minus", "interface_permeability_plus",
        "interface_permeability_minus", "brackets"}
    # the bed tensors are the config's diagonals, bit for bit
    k_plus = np.diag(default_config().flow["k_plus"])
    assert np.array_equal(report["permeability_plus"]["tensor"], k_plus)
    # the drag tensor is the closed form k0 I, bit for bit
    assert np.array_equal(report["drag"]["tensor"], report["k0"] * np.eye(2))
    assert "[cell] ok" in capsys.readouterr().out


def test_main_ergodic_stage(tmp_path):
    cfgfile = tmp_path / "cfg.yaml"
    cfgfile.write_text("ergodic: {horizons: [200, 800, 3200]}\n")
    out = tmp_path / "erg"
    assert main(["ergodic", "--config", str(cfgfile),
                 "--out", str(out)]) == 0
    report = json.loads((out / "ergodic.json").read_text())
    assert len(report["estimates"]) == 3
    assert report["stderr_rate"] < -0.2
    stderrs = [e["stderr"] for e in report["estimates"]]
    assert stderrs[0] > stderrs[-1]


# ---------------------------------------------------------------------------
# the gate ledger

# the rows of a small-config `fisshom all`, per step
TENSORS = ("tube drag", "upper permeability", "lower permeability",
           "upper diffusion", "lower diffusion",
           "interface permeability (upper)", "interface permeability (lower)")
GATES = {
    "cell": {"tube drag integral identity gap"}
    | {f"{t} tensor {c}" for t in TENSORS
       for c in ("asymmetry", "min eigenvalue")},
    "flow": {"flow residual", "flow interface flux continuity gap",
             "flow series gap"},
    "transport": {"transport residual", "transport balance gap",
                  "transport min concentration under nonnegative boundary "
                  "data"},
    "fissure": {"tube profile dual-route gap"},
    "ergodic": {"bracket standard error decay rate"},
    "sweep": {f"sweep exchange:{m} medians strictly decreasing: worst step"
              for m in ("rel_err_top", "rel_err_bottom")},
}


def test_gate_rows_fail_on_nan():
    assert gate("g", 1e-9, 1e-8) == {"name": "g", "value": 1e-9,
                                     "bound": 1e-8, "relation": "<=",
                                     "ok": True}
    for relation in ("<=", "<", ">", ">="):
        assert not gate("g", math.nan, 0.0, relation)["ok"]
    assert not gate("g", 0.0, 0.0, "<")["ok"]
    assert gate("g", 0.0, 0.0, ">=")["ok"]


def test_stages_raise_no_check_failure():
    # a stage reports its checks as rows; only the runner judges them
    tree = ast.parse(inspect.getsource(cli))
    stages = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name.startswith("_stage_")]
    assert {node.name[len("_stage_"):] for node in stages} == set(cli.STAGES)
    for node in stages:
        assert not any(isinstance(n, ast.Raise) for n in ast.walk(node)), \
            node.name
    assert not hasattr(cli, "CheckFailure")
    assert not any(isinstance(node, ast.ClassDef)
                   and node.name == "CheckFailure" for node in tree.body)


def test_manifest_lists_every_gate(tmp_path):
    rows = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(small_config(out), "all") == 0
        man = json.loads((out / "manifest.json").read_text())
        assert {s["name"]: {g["name"] for g in s["gates"]}
                for s in man["steps"]} == GATES
        rows.append([g for s in man["steps"] for g in s["gates"]])
        assert len(rows[-1]) == sum(len(names) for names in GATES.values())
        for g in rows[-1]:
            assert math.isfinite(g["value"]) and g["ok"], g
    assert [g["value"] for g in rows[0]] == [g["value"] for g in rows[1]]


def _break_energy_identity(torsion):
    return replace(torsion, k0_energy=2.0 * torsion.k0)


def _reverse_first_median(summary):
    medians = dict(summary.medians)
    medians["rel_err_top"] = medians["rel_err_top"][::-1]
    return replace(summary, medians=medians)


def _wrap(fn, after):
    return lambda *args, **kwargs: after(fn(*args, **kwargs))


# stage: (attribute of cli, its replacement given the original, failing row)
MUTATIONS = {
    "cell": ("solve_poisson_cell",
             lambda real: _wrap(real, _break_energy_identity),
             "tube drag integral identity gap"),
    "flow": ("series_gap", lambda real: lambda sol, bc: 1e-6,
             "flow series gap"),
    "transport": ("mass_balance_gap", lambda real: lambda sol: 1e-6,
                  "transport balance gap"),
    "fissure": ("dual_route_gap", lambda real: lambda cfg: 1e-6,
                "tube profile dual-route gap"),
    "ergodic": ("fit_loglog_slope", lambda real: lambda x, y: -0.1,
                "bracket standard error decay rate"),
    "sweep": ("run_sweep", lambda real: _wrap(real, _reverse_first_median),
              "sweep exchange:rel_err_top medians strictly decreasing: "
              "worst step"),
}


@pytest.mark.parametrize("stage", list(MUTATIONS))
def test_one_failing_row_fails_its_stage(tmp_path, monkeypatch, stage):
    attr, mutate, row_name = MUTATIONS[stage]
    monkeypatch.setattr(cli, attr, mutate(getattr(cli, attr)))
    out = tmp_path / "out"
    assert run(small_config(out), stage) == 4
    man = json.loads((out / "manifest.json").read_text())
    step = man["steps"][-1]
    assert step["name"] == stage and step["status"] == "check_failed"
    assert [g["name"] for g in step["gates"] if not g["ok"]] == [row_name]
    assert step["detail"].startswith(row_name + " ")
    # a failing row still leaves every file of the stage written and indexed
    assert step["outputs"] and set(step["outputs"]) <= set(man["files"])


def test_every_failing_row_is_named(tmp_path, monkeypatch):
    # an indefinite interface permeability fails both of its rows
    monkeypatch.setattr(cli, "compute_kstar", lambda stats, k: -k)
    out = tmp_path / "out"
    assert run(small_config(out), "cell") == 4
    (step,) = json.loads((out / "manifest.json").read_text())["steps"]
    assert step["status"] == "check_failed"
    names = [g["name"] for g in step["gates"] if not g["ok"]]
    assert names == [f"interface permeability ({side}) tensor min eigenvalue"
                     for side in ("upper", "lower")]
    parts = step["detail"].split("; ")
    assert len(parts) == 2
    assert all(part.startswith(name + " ") and part.endswith(" is not above 0")
               for part, name in zip(parts, names))
    assert step["outputs"] == ["cell.json"]


@pytest.fixture(scope="module")
def solutions(tmp_path_factory):
    """The flow and transport solutions (and the flow boundary data) of the
    small config's stages."""
    seen = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in ("solve_limit_flow", "solve_limit_transport"):
            real = getattr(cli, name)

            def keep(*args, real=real, name=name):
                seen[name] = (real(*args), args)
                return seen[name][0]

            mp.setattr(cli, name, keep)
        out = tmp_path_factory.mktemp("solutions")
        for stage in ("flow", "transport"):
            assert run(small_config(out), stage) == 0
    flow, (_, bc) = seen["solve_limit_flow"]
    return {"flow": flow, "bc": bc,
            "transport": seen["solve_limit_transport"][0]}


def _with_nan(sol, field, index=(1, 1, 1)):
    values = getattr(sol, field).copy()
    values[index] = np.nan
    return replace(sol, **{field: values})


def _nan_tube_route(monkeypatch):
    real = fissure_transport.solve_z

    def solve_z(cfg, method="volterra"):
        sol = real(cfg, method)
        return replace(sol, values=np.full_like(sol.values, np.nan))

    monkeypatch.setattr(fissure_transport, "solve_z", solve_z)
    return fissure_transport.dual_route_gap(verify._constant_tube())


def _nan_bottom_flux(monkeypatch):
    real = verify.fine_interface_fluxes
    monkeypatch.setattr(verify, "fine_interface_fluxes",
                        lambda *args: (real(*args)[0], np.nan))
    return verify.flux_exchange_constant_gap()


# each puts one NaN where the builtin max or min would have dropped it
NAN_CASES = {
    "mass_balance_gap u_minus": lambda s, mp: mass_balance_gap(
        _with_nan(s["transport"], "u_minus")),
    "mass_balance_gap u_plus": lambda s, mp: mass_balance_gap(
        _with_nan(s["transport"], "u_plus")),
    "extrema low": lambda s, mp: _with_nan(
        s["transport"], "u_minus").extrema()[0],
    "extrema high": lambda s, mp: _with_nan(
        s["transport"], "u_minus").extrema()[1],
    "flux_continuity_gap": lambda s, mp: _with_nan(
        s["flow"], "trace_minus", (1, 1)).flux_continuity_gap(),
    "series_gap": lambda s, mp: series_gap(
        _with_nan(s["flow"], "trace_minus", (1, 1)), s["bc"]),
    "dual_route_gap": lambda s, mp: _nan_tube_route(mp),
    "flux_exchange_constant_gap": lambda s, mp: _nan_bottom_flux(mp),
    "sweep worst_step": lambda s, mp: verify.SweepSummary(
        "x", (0.1, 0.05, 0.02), 1, ("m",), {"m": (1.0, 0.5, np.nan)}, {}, ()
    ).worst_step("m"),
}


@pytest.mark.parametrize("case", list(NAN_CASES))
def test_gate_values_carry_nan(solutions, monkeypatch, case):
    value = NAN_CASES[case](solutions, monkeypatch)
    assert math.isnan(value)
    assert not gate(case, value, 1.0)["ok"]
