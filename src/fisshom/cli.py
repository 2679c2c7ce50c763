"""Pipeline driver: staged runs from one config file, with a run manifest.

Stages: cell (the tube drag constant, the interface permeability, and SPD
checks of the bed tensors, which the config gives), flow (coupled two-bed
filtration), transport (coupled contaminant exchange), fissure (resolved
single-tube profile and census), ergodic (bracket estimates over growing
horizons), sweep (convergence ladders).  Every stage writes deterministic
files; reruns with the same config are byte-identical except for the
manifest timestamp.  Exit codes: 0 success, 2 config error (recorded in a
manifest when `--out` names the directory), 3 solver failure or crash,
4 acceptance-check failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from functools import cached_property

import numpy as np

from . import __version__
from ._numerics import derive_seed, fit_loglog_slope
from .cell import compute_kstar, solve_poisson_cell
from .config import ConfigError, ExperimentConfig, parse_config
from .fissure_transport import (FissureODEConfig, build_profile,
                                dual_route_gap, pair_brackets,
                                transmission_coeffs)
from .fissures import GeometryParams, enumerate_fissures, fissure_census
from .limit_flow import FlowBC, FlowConfig, series_gap, solve_limit_flow
from .limit_transport import (TransportConfig, mass_balance_gap,
                              solve_limit_transport)
from .stochastic import PhaseSequence, build_path, estimate_brackets
from .verify import run_sweep

STAGES = ("cell", "flow", "transport", "fissure", "ergodic", "sweep")
_DEPS = {"flow": ("cell",), "transport": ("cell", "flow")}


class CheckFailure(Exception):
    """A solved stage violated one of its acceptance gates.

    Carries the names of files the stage wrote before the gate tripped, so
    the manifest still indexes partial outputs (they are what one inspects
    to diagnose the failure).
    """

    def __init__(self, message: str, files=()):
        super().__init__(message)
        self.files = list(files)


# ---------------------------------------------------------------------------
# deterministic serialization


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _atomic_write(path: str, text: str):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_json(path: str, obj):
    _atomic_write(path, json.dumps(_jsonify(obj), sort_keys=True, indent=2)
                  + "\n")


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def _write_csv(path: str, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss counts KiB on Linux and bytes on macOS
    return round(peak / (1024.0 ** 2 if sys.platform == "darwin" else 1024.0),
                 1)


# ---------------------------------------------------------------------------
# shared per-run state


class _Context:
    """Lazily computed quantities shared between stages (paths, brackets,
    the drag constant), so running `all` never solves the same cell twice."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg

    @cached_property
    def q_path(self):
        return build_path(self.cfg.aperture)

    @cached_property
    def r_path(self):
        return build_path(self.cfg.centerline)

    @cached_property
    def stats(self):
        return estimate_brackets(self.q_path, 2.0e3, r_path=self.r_path,
                                 window_len=self.cfg.ergodic["window_len"])

    @cached_property
    def torsion(self):
        return solve_poisson_cell(self.cfg.cell_resolution)

    @cached_property
    def geometry(self) -> GeometryParams:
        return GeometryParams(
            epsilon=self.cfg.epsilon, theta=self.cfg.theta,
            height=self.cfg.h_length, x1_extent=self.cfg.x1_extent,
            x2_extent=self.cfg.x2_extent)

    @cached_property
    def phases(self) -> PhaseSequence:
        return PhaseSequence(bound=self.cfg.phase_bound,
                             seed=derive_seed(self.cfg.base_seed, 3))


# ---------------------------------------------------------------------------
# stages


def _spd_report(name: str, tensor: np.ndarray) -> dict:
    tensor = np.asarray(tensor, dtype=float)
    sym_gap = float(np.max(np.abs(tensor - tensor.T)))
    eigs = np.linalg.eigvalsh(0.5 * (tensor + tensor.T))
    if not sym_gap <= 1e-10:
        raise CheckFailure(f"{name} tensor asymmetric (gap {sym_gap:.3e})")
    if not eigs[0] > 0.0:
        raise CheckFailure(f"{name} tensor not positive definite "
                           f"(min eigenvalue {eigs[0]:.3e})")
    return {"tensor": tensor, "symmetry_gap": sym_gap,
            "min_eigenvalue": float(eigs[0])}


def _stage_cell(ctx: _Context, outdir: str) -> list[str]:
    cfg = ctx.cfg
    torsion = ctx.torsion
    if not torsion.identity_gap <= 1e-8:
        raise CheckFailure(
            f"tube drag integral identity gap {torsion.identity_gap:.3e} "
            "exceeds 1e-8")
    k_plus = np.diag(cfg.flow["k_plus"])
    k_minus = np.diag(cfg.flow["k_minus"])
    stats = ctx.stats
    report = {
        "resolution": cfg.cell_resolution,
        "k0": torsion.k0,
        "k0_identity_gap": torsion.identity_gap,
        "k0_residual": torsion.residual,
        "k0_route": torsion.route,
        "drag": _spd_report("tube drag", torsion.k0 * np.eye(2)),
        "permeability_plus": _spd_report("upper permeability", k_plus),
        "permeability_minus": _spd_report("lower permeability", k_minus),
        "diffusion_plus": _spd_report("upper diffusion",
                                      np.diag(cfg.transport["diff_plus"])),
        "diffusion_minus": _spd_report("lower diffusion",
                                       np.diag(cfg.transport["diff_minus"])),
        "interface_permeability_plus": _spd_report(
            "interface permeability (upper)", compute_kstar(stats, k_plus)),
        "interface_permeability_minus": _spd_report(
            "interface permeability (lower)", compute_kstar(stats, k_minus)),
        "brackets": {"mean_q": stats.mean_q, "mean_q2": stats.mean_q2,
                     "mean_inv_q2": stats.mean_inv_q2,
                     "mean_r": stats.mean_r, "stderr": stats.stderr},
    }
    _write_json(os.path.join(outdir, "cell.json"), report)
    return ["cell.json"]


def _stage_flow(ctx: _Context, outdir: str) -> list[str]:
    cfg = ctx.cfg
    f = cfg.flow
    flow_cfg = FlowConfig(
        k_plus=f["k_plus"], k_minus=f["k_minus"],
        mu_plus=f["mu_plus_viscosity"], mu_minus=f["mu_minus_viscosity"],
        mu_fissure=f["mu_fissure_viscosity"], k0=ctx.torsion.k0,
        stats=ctx.stats, height=cfg.h_length,
        depth_plus=f["depth_plus_length"], depth_minus=f["depth_minus_length"],
        x1_extent=cfg.x1_extent, x2_extent=cfg.x2_extent,
        shape=tuple(f["shape"]), gravity_plus=f["gravity_plus"],
        gravity_minus=f["gravity_minus"])
    bc = FlowBC(kind=f["bc_kind"], p_top=f["p_top"], p_bottom=f["p_bottom"])
    sol = solve_limit_flow(flow_cfg, bc)
    if not sol.residual <= 1e-9:
        raise CheckFailure(f"flow residual {sol.residual:.3e} exceeds 1e-9")
    cont = sol.flux_continuity_gap()
    if not cont <= 1e-8:
        raise CheckFailure(f"flow interface flux continuity gap {cont:.3e} "
                           "exceeds 1e-8")
    series = series_gap(sol, bc) if bc.kind == "pressure_ends" else None
    if series is not None and not series <= 1e-12:
        raise CheckFailure(f"flow series gap {series:.3e} exceeds 1e-12")
    report = {
        "route": sol.route,
        "residual": sol.residual,
        "flux_continuity_gap": cont,
        "series_gap": series,
        "coupling": flow_cfg.coupling,
        "k0": flow_cfg.k0,
        "mean_p_minus": sol.mean_p_minus,
        "pressure_range_plus": [float(sol.p_plus.min()),
                                float(sol.p_plus.max())],
        "pressure_range_minus": [float(sol.p_minus.min()),
                                 float(sol.p_minus.max())],
        "mean_interface_flux": float(np.mean(sol.interface_flux)),
    }
    _write_json(os.path.join(outdir, "flow.json"), report)
    x1, x2 = flow_cfg.horizontal_centers()
    rows = [(a, b, x1[a], x2[b], sol.trace_plus[a, b], sol.trace_minus[a, b],
             sol.interface_flux[a, b], sol.tube_velocity[a, b])
            for a in range(len(x1)) for b in range(len(x2))]
    _write_csv(os.path.join(outdir, "flow_interface.csv"),
               ("i", "j", "x1", "x2", "trace_plus", "trace_minus",
                "interface_flux", "tube_velocity"), rows)
    return ["flow.json", "flow_interface.csv"]


def _stage_transport(ctx: _Context, outdir: str) -> list[str]:
    cfg = ctx.cfg
    t = cfg.transport
    stats = ctx.stats
    exchange = transmission_coeffs(
        t["tube_diffusion"], t["R_rate"], t["drift_v3"], cfg.h_length,
        stats.mean_q2, stats.mean_inv_q2)
    tr_cfg = TransportConfig(
        diff_plus=t["diff_plus"], diff_minus=t["diff_minus"],
        exchange=exchange, stats=stats, cell_porosity=t["porosity"],
        bc_plus=t["bc_plus"], bc_minus=t["bc_minus"],
        surface_diffusion=t["surface_diffusion"], height=cfg.h_length,
        depth_plus=t["depth_plus_length"],
        depth_minus=t["depth_minus_length"], x1_extent=cfg.x1_extent,
        x2_extent=cfg.x2_extent, shape=tuple(t["shape"]))
    sol = solve_limit_transport(tr_cfg)
    if not sol.residual <= 1e-9:
        raise CheckFailure(f"transport residual {sol.residual:.3e} "
                           "exceeds 1e-9")
    balance = mass_balance_gap(sol)
    if not balance <= 1e-8:
        raise CheckFailure(f"transport balance gap {balance:.3e} "
                           "exceeds 1e-8")
    lo, hi = sol.extrema()
    if min(t["bc_plus"], t["bc_minus"]) >= 0.0 and not lo >= -1e-12:
        raise CheckFailure(f"negative concentration {lo:.3e} under "
                           "nonnegative boundary data")
    flux_top, flux_bottom = sol.exchange_fluxes()
    mean_top, mean_bottom = sol.mean_exchange_fluxes()
    report = {
        "route": sol.route,
        "iterations": sol.iterations,
        "residual": sol.residual,
        "mass_balance_gap": balance,
        "concentration_range": [lo, hi],
        "exchange": {"scale": exchange.exchange_scale,
                     "cosh_factor": exchange.cosh_factor,
                     "advective_factor": exchange.advective_factor,
                     "screening_rate": exchange.r_hat},
        "mean_flux_top": mean_top,
        "mean_flux_bottom": mean_bottom,
    }
    _write_json(os.path.join(outdir, "transport.json"), report)
    x1, x2, _ = tr_cfg.vertex_axes("plus")
    rows = [(a, b, x1[a], x2[b], sol.trace_plus[a, b], sol.trace_minus[a, b],
             flux_top[a, b], flux_bottom[a, b])
            for a in range(len(x1)) for b in range(len(x2))]
    _write_csv(os.path.join(outdir, "transport_traces.csv"),
               ("i", "j", "x1", "x2", "u_plus_trace", "u_minus_trace",
                "flux_top", "flux_bottom"), rows)
    return ["transport.json", "transport_traces.csv"]


def _stage_fissure(ctx: _Context, outdir: str) -> list[str]:
    cfg = ctx.cfg
    fissures = enumerate_fissures(ctx.geometry, ctx.q_path, ctx.r_path,
                                  ctx.phases)
    census = fissure_census(fissures)
    mid = len(fissures) // 2
    tube_cfg = FissureODEConfig(
        fissure=fissures[mid], diffusion=cfg.transport["tube_diffusion"],
        reaction=cfg.transport["R_rate"], v3=cfg.transport["drift_v3"])
    gap = dual_route_gap(tube_cfg)
    if not gap <= 1e-8:
        raise CheckFailure(f"tube profile dual-route gap {gap:.3e} "
                           "exceeds 1e-8")
    _write_csv(os.path.join(outdir, "fissure_census.csv"),
               census.dtype.names,
               [tuple(row) for row in census])
    u_plus = cfg.transport["bc_plus"]
    u_minus = cfg.transport["bc_minus"]
    profile = build_profile(tube_cfg, u_plus, u_minus, kind="reactive")
    pb = pair_brackets(tube_cfg)
    limit = transmission_coeffs(
        tube_cfg.diffusion, tube_cfg.reaction, tube_cfg.v3, cfg.h_length,
        pb.mean_qq, pb.mean_inv_qq)
    report = {
        "n_fissures": len(fissures),
        "tube_index": [int(fissures[mid].i), int(fissures[mid].j)],
        "dual_route_gap": gap,
        "pair_brackets": {"mean_qq": pb.mean_qq,
                          "mean_inv_qq": pb.mean_inv_qq},
        "flux_top_resolved": profile.flux_top,
        "flux_bottom_resolved": profile.flux_bottom,
        "flux_top_limit": float(limit.flux_top(u_plus, u_minus)),
        "flux_bottom_limit": float(limit.flux_bottom(u_plus, u_minus)),
    }
    _write_json(os.path.join(outdir, "fissure.json"), report)
    rows = list(zip(profile.x3, profile.values))
    _write_csv(os.path.join(outdir, "fissure_profile.csv"),
               ("x3", "concentration"), rows)
    return ["fissure_census.csv", "fissure.json", "fissure_profile.csv"]


def _stage_ergodic(ctx: _Context, outdir: str) -> list[str]:
    cfg = ctx.cfg
    horizons = cfg.ergodic["horizons"]
    window = cfg.ergodic["window_len"]
    entries = []
    for T in horizons:
        st = estimate_brackets(ctx.q_path, T, r_path=ctx.r_path,
                               window_len=window)
        entries.append({"T": T, "mean_q": st.mean_q, "mean_q2": st.mean_q2,
                        "mean_inv_q2": st.mean_inv_q2, "mean_r": st.mean_r,
                        "stderr": st.stderr})
    stderrs = [e["stderr"] for e in entries]
    slope = fit_loglog_slope(horizons, stderrs)
    if not slope < -0.2:
        raise CheckFailure(
            f"bracket standard error decays with rate {slope:.3f}; expected "
            "clearly negative (about -0.5) over growing horizons")
    report = {"window_len": window, "estimates": entries,
              "stderr_rate": float(slope)}
    _write_json(os.path.join(outdir, "ergodic.json"), report)
    return ["ergodic.json"]


def _stage_sweep(ctx: _Context, outdir: str) -> list[str]:
    cfg = ctx.cfg
    files = []
    failures = []
    for idx, target in enumerate(cfg.sweep["targets"]):
        kwargs = {
            "n_realizations": cfg.sweep["realizations"],
            "seed": derive_seed(cfg.base_seed, 40 + idx),
            "theta": cfg.theta,
            "height": cfg.h_length,
            "params_q": ctx.cfg.aperture,
            "params_r": ctx.cfg.centerline,
            "phase_bound": cfg.phase_bound,
        }
        if cfg.sweep["epsilons"] is not None:
            kwargs["eps_values"] = tuple(cfg.sweep["epsilons"])
        summary = run_sweep(target, **kwargs)
        keys = sorted(summary.rows[0])
        _write_csv(os.path.join(outdir, f"sweep_{target}.csv"), keys,
                   [tuple(row[k] for k in keys) for row in summary.rows])
        report = {
            "eps_values": list(summary.eps_values),
            "n_realizations": summary.n_realizations,
            "medians": {k: list(v) for k, v in summary.medians.items()},
            "iqrs": {k: list(v) for k, v in summary.iqrs.items()},
            "rates": {k: float(summary.slope(k))
                      for k in summary.metric_names},
            "strictly_decreasing": {k: summary.strictly_decreasing(k)
                                    for k in summary.metric_names},
        }
        _write_json(os.path.join(outdir, f"sweep_{target}.json"), report)
        files += [f"sweep_{target}.csv", f"sweep_{target}.json"]
        for k in summary.metric_names:
            if not summary.strictly_decreasing(k):
                failures.append(f"{target}:{k}")
    if failures:
        raise CheckFailure("sweep medians not strictly decreasing for "
                           + ", ".join(failures), files=files)
    return files


_STAGE_FN = {"cell": _stage_cell, "flow": _stage_flow,
             "transport": _stage_transport, "fissure": _stage_fissure,
             "ergodic": _stage_ergodic, "sweep": _stage_sweep}


# ---------------------------------------------------------------------------
# runner


def _ordered_stages(subcommand: str) -> list[str]:
    if subcommand == "all":
        return list(STAGES)
    wanted = set(_DEPS.get(subcommand, ())) | {subcommand}
    return [s for s in STAGES if s in wanted]


def _write_manifest(outdir: str, config_sha256, subcommand: str, steps,
                    files: dict):
    _write_json(os.path.join(outdir, "manifest.json"), {
        "config_sha256": config_sha256,
        "package_version": __version__,
        "created_unix": int(time.time()),
        "subcommand": subcommand,
        "steps": steps,
        "files": files,
    })


def run(cfg: ExperimentConfig, subcommand: str, out_dir: str | None = None,
        stream=None) -> int:
    """Execute one subcommand; returns the process exit code.

    A stage that raises anything other than a gate failure or a solver
    error is recorded as `crashed`; the manifest is still written and the
    stage's dependents are skipped.
    """
    if stream is None:
        stream = sys.stdout
    if subcommand != "all" and subcommand not in STAGES:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    outdir = out_dir if out_dir is not None else cfg.output_dir
    os.makedirs(outdir, exist_ok=True)
    ctx = _Context(cfg)
    steps = []
    all_files: list[str] = []
    failed: set[str] = set()
    for stage in _ordered_stages(subcommand):
        if any(d in failed for d in _DEPS.get(stage, ())):
            steps.append({"name": stage, "status": "skipped",
                          "detail": "prerequisite failed", "outputs": []})
            print(f"[{stage}] skipped (prerequisite failed)", file=stream)
            continue
        t0 = time.perf_counter()
        try:
            files = _STAGE_FN[stage](ctx, outdir)
            status, detail = "ok", ""
        except CheckFailure as exc:
            files, status, detail = exc.files, "check_failed", str(exc)
            failed.add(stage)
        except (ValueError, ArithmeticError, RuntimeError,
                np.linalg.LinAlgError) as exc:
            files, status, detail = [], "solver_error", str(exc)
            failed.add(stage)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            files, status = [], "crashed"
            detail = f"{type(exc).__name__}: {exc}"
            failed.add(stage)
        dt = time.perf_counter() - t0
        steps.append({"name": stage, "status": status, "detail": detail,
                      "seconds": round(dt, 3),
                      "peak_rss_mb": _peak_rss_mb(), "outputs": files})
        all_files += files
        if status == "ok":
            print(f"[{stage}] ok ({dt:.2f} s)", file=stream)
        else:
            print(f"[{stage}] {status.upper()}: {detail}", file=stream)
    _write_manifest(outdir, cfg.config_hash(), subcommand, steps,
                    {name: _sha256(os.path.join(outdir, name))
                     for name in sorted(all_files)})
    statuses = {s["status"] for s in steps}
    if statuses & {"solver_error", "crashed"}:
        return 3
    if "check_failed" in statuses:
        return 4
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fisshom",
        description="Effective flow and transport through fissured media: "
                    "staged pipeline runs with a reproducible manifest.")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", default=None,
                        help="experiment file (YAML); omit for defaults")
    common.add_argument("--seed", metavar="N", type=int, default=None,
                        help="override run.base_seed")
    common.add_argument("--out", metavar="DIR", default=None,
                        help="override run.output_dir")
    common.add_argument("--resolution", metavar="N", type=int, default=None,
                        help="override cell.resolution")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    descriptions = {
        "cell": "effective tensors and the tube drag constant",
        "flow": "coupled two-bed filtration with the fissure transmission "
                "condition",
        "transport": "coupled contaminant transport with the exchange law",
        "fissure": "resolved single-tube profile and the fissure census",
        "ergodic": "bracket estimates over growing horizons",
        "sweep": "convergence ladders against the effective model",
        "all": "every stage in dependency order",
    }
    for name, desc in descriptions.items():
        sub.add_parser(name, parents=[common], help=desc, description=desc)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides: dict = {}
    if args.seed is not None:
        overrides.setdefault("run", {})["base_seed"] = args.seed
    if args.out is not None:
        overrides.setdefault("run", {})["output_dir"] = args.out
    if args.resolution is not None:
        overrides.setdefault("cell", {})["resolution"] = args.resolution
    try:
        cfg = parse_config(path=args.config, overrides=overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        if args.out is not None:
            os.makedirs(args.out, exist_ok=True)
            _write_manifest(args.out, None, args.subcommand,
                            [{"name": "config", "status": "config_error",
                              "detail": str(exc), "outputs": []}], {})
        return 2
    return run(cfg, args.subcommand, out_dir=args.out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
