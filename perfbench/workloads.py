"""The three benchmark workloads and the checks on their outputs.

Each workload has a set-up, built once per process from the seed, and a
pass: a fixed list of operations that the worker repeats in a closed loop.
An operation returns an `Op` record; it failed when the program raised or
reported a failure, or when a check on its output did not hold.  A check
that finds output disagreeing with the seed-commit reference, or with the
same output from another pass or process, also marks the run incorrect.

Workloads:
  pipeline        `fisshom.cli.run(cfg, "all")` on the default config with
                  `run.base_seed` set to the seed; one operation per stage.
  beds            separable coupled-bed solves at n = 16 and 24 cells per
                  bed: three flow and two transport solves per size.
  beds_advective  transport with horizontally varying bed and surface
                  velocities at n = 16 and 24 (the non-separable route).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

# Layer functions are called through their modules, so the tracer's
# wrappers on the module attributes see these calls too.
from fisshom import (cell, cli, config, fissure_transport, limit_flow,
                     limit_transport, stochastic)
from fisshom.limit_flow import FlowBC, FlowConfig
from fisshom.limit_transport import TransportConfig

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

BED_SIZES = (16, 24)
# Checks against the seed-commit reference use tolerances, not byte
# identity: another exact solver may move the last digits.
K0_RTOL = 1e-9
MEDIAN_RTOL = 1e-8
RESIDUAL_ATOL = 1e-12
MMS_RTOL = 0.02
# The CLI's own gates, applied to the bed solves.
FLOW_RESIDUAL_GATE = 1e-9
FLOW_CONTINUITY_GATE = 1e-8
TRANSPORT_RESIDUAL_GATE = 1e-9
TRANSPORT_BALANCE_GATE = 1e-8
NEGATIVITY_GATE = -1e-12
# Acceptance criterion 08: manufactured-solution order of the flow solver.
MMS_MIN_ORDER = 1.8


@dataclass
class Op:
    """One timed operation and the verdict of its checks."""

    name: str
    seconds: float
    ok: bool = True            # the operation and all its checks passed
    correct: bool = True       # no check found output disagreeing
    detail: list = field(default_factory=list)
    digest: str = ""           # output digest, compared across repeats

    def fail(self, message: str, wrong: bool = True):
        self.ok = False
        self.correct = self.correct and not wrong
        self.detail.append(message)


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def seeded_config(seed: int):
    """The default experiment with `run.base_seed` set to the seed."""
    return config.parse_config(overrides={"run": {"base_seed": seed}})


def _array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _rel_gap(value: float, ref: float) -> float:
    return abs(value - ref) / max(abs(ref), 1e-300)


# ---------------------------------------------------------------------------
# pipeline


class Pipeline:
    """`fisshom all` on the default config, seeded through run.base_seed."""

    def __init__(self, seed: int, work_dir: str):
        self.work_dir = work_dir
        self.cfg = seeded_config(seed)
        ref = load_reference()
        entry = ref["pipeline"].get(str(seed))
        # without a captured run for this seed only k0 has a reference
        self.reference = entry["scalars"] if entry else {"k0": ref["k0"]}
        self.passes = 0

    def run_pass(self) -> tuple[list[Op], float]:
        out = os.path.join(self.work_dir, f"pipeline-{self.passes}")
        self.passes += 1
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        code = cli.run(self.cfg, "all", out_dir=out, stream=io.StringIO())
        wall = time.perf_counter() - t0
        try:
            ops = pipeline_ops(out, code, self.reference)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return ops, wall


def read_pipeline_outputs(out: str) -> dict:
    """Manifest, data-file digests and the key scalars of one run."""
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)

    def load(name):
        path = os.path.join(out, name)
        if not os.path.exists(path):
            return None
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    digests = {}
    for name in sorted(os.listdir(out)):
        if name != "manifest.json":
            digests[name] = _file_digest(os.path.join(out, name))
    scalars = {}
    cell_report = load("cell.json")
    if cell_report is not None:
        scalars["k0"] = cell_report["k0"]
    flow = load("flow.json")
    if flow is not None:
        scalars["flow.residual"] = flow["residual"]
        scalars["flow.flux_continuity_gap"] = flow["flux_continuity_gap"]
    transport = load("transport.json")
    if transport is not None:
        scalars["transport.residual"] = transport["residual"]
        scalars["transport.mass_balance_gap"] = transport["mass_balance_gap"]
    for target in ("measure", "energy", "profile", "exchange"):
        sweep = load(f"sweep_{target}.json")
        if sweep is not None:
            for metric, values in sweep["medians"].items():
                scalars[f"sweep.{target}.{metric}"] = values
    return {"steps": manifest["steps"], "files": manifest["files"],
            "digests": digests, "scalars": scalars}


def _stage_of(key: str) -> str:
    return "cell" if key == "k0" else key.split(".")[0]


def _check_scalar(op: Op, key: str, value, ref):
    if value is None:
        op.fail(f"{key} missing")
    elif key == "k0":
        if _rel_gap(value, ref) > K0_RTOL:
            op.fail(f"k0 {value!r} differs from reference {ref!r}")
    elif key.startswith("sweep."):
        if len(value) != len(ref) or any(
                _rel_gap(v, r) > MEDIAN_RTOL for v, r in zip(value, ref)):
            op.fail(f"{key} medians {value} differ from reference {ref}")
    elif value > max(ref, 0.0) + RESIDUAL_ATOL:
        op.fail(f"{key} {value:.3e} exceeds reference {ref:.3e} "
                f"+ {RESIDUAL_ATOL:.0e}")


def pipeline_ops(out: str, code: int, reference: dict) -> list[Op]:
    """One operation per stage, checked against the manifest, the exit code
    and the seed-commit reference scalars; residuals and gaps without a
    reference must stay below RESIDUAL_ATOL."""
    result = read_pipeline_outputs(out)
    scalars = result["scalars"]
    ops = []
    statuses = set()
    for step in result["steps"]:
        stage = step["name"]
        statuses.add(step["status"])
        op = Op(name=stage, seconds=float(step.get("seconds", 0.0)))
        if step["status"] != "ok":
            # the program reported the failure itself
            op.fail(f"{stage} {step['status']}: {step.get('detail', '')}",
                    wrong=False)
        h = hashlib.sha256()
        for name in step["outputs"]:
            digest = result["digests"].get(name)
            if digest is None or result["files"].get(name) != digest:
                op.fail(f"{name} missing or its manifest digest is stale")
            h.update(f"{name}:{digest}\n".encode())
        op.digest = h.hexdigest()
        for key, ref in reference.items():
            if _stage_of(key) == stage:
                _check_scalar(op, key, scalars.get(key), ref)
        for key, value in scalars.items():
            if (_stage_of(key) == stage and key not in reference
                    and stage in ("flow", "transport")
                    and not value <= RESIDUAL_ATOL):
                op.fail(f"{key} {value:.3e} exceeds {RESIDUAL_ATOL:.0e}")
        ops.append(op)
    expected = 3 if "solver_error" in statuses else (
        4 if "check_failed" in statuses else 0)
    if code != expected or len(ops) != len(cli.STAGES):
        for op in ops:
            op.fail(f"exit code {code} does not match the stage statuses "
                    f"(expected {expected})")
    return ops


# ---------------------------------------------------------------------------
# coupled beds


@dataclass
class BedSetup:
    """Shared inputs of the bed workloads: config, k0 and brackets."""

    cfg: object
    k0: float
    stats: object


def bed_setup(seed: int, cell_resolution: int | None = None) -> BedSetup:
    """k0 from the torsion cell and the brackets of the default processes,
    exactly as the CLI's flow and transport stages build them."""
    cfg = seeded_config(seed)
    torsion = cell.solve_poisson_cell(cell_resolution or cfg.cell_resolution)
    stats = stochastic.estimate_brackets(
        stochastic.build_path(cfg.aperture), 2.0e3,
        r_path=stochastic.build_path(cfg.centerline),
        window_len=cfg.ergodic["window_len"])
    return BedSetup(cfg=cfg, k0=torsion.k0, stats=stats)


def flow_config(setup: BedSetup, n: int) -> FlowConfig:
    cfg = setup.cfg
    f = cfg.flow
    return FlowConfig(
        k_plus=f["k_plus"], k_minus=f["k_minus"],
        mu_plus=f["mu_plus_viscosity"], mu_minus=f["mu_minus_viscosity"],
        mu_fissure=f["mu_fissure_viscosity"], k0=setup.k0,
        stats=setup.stats, height=cfg.h_length,
        depth_plus=f["depth_plus_length"], depth_minus=f["depth_minus_length"],
        x1_extent=cfg.x1_extent, x2_extent=cfg.x2_extent,
        shape=(n, n, n, n), gravity_plus=f["gravity_plus"],
        gravity_minus=f["gravity_minus"])


def transport_config(setup: BedSetup, n: int, **extra) -> TransportConfig:
    cfg = setup.cfg
    t = cfg.transport
    exchange = fissure_transport.transmission_coeffs(
        t["tube_diffusion"], t["R_rate"], t["drift_v3"], cfg.h_length,
        setup.stats.mean_q2, setup.stats.mean_inv_q2)
    kwargs = dict(
        diff_plus=t["diff_plus"], diff_minus=t["diff_minus"],
        exchange=exchange, stats=setup.stats, cell_porosity=t["porosity"],
        bc_plus=t["bc_plus"], bc_minus=t["bc_minus"],
        surface_diffusion=t["surface_diffusion"], height=cfg.h_length,
        depth_plus=t["depth_plus_length"],
        depth_minus=t["depth_minus_length"], x1_extent=cfg.x1_extent,
        x2_extent=cfg.x2_extent, shape=(n, n, n, n))
    kwargs.update(extra)
    return TransportConfig(**kwargs)


def manufactured_flow(cfg: FlowConfig):
    """Pressure pair and wells that satisfy the transmission condition
    exactly (the manufactured solution of acceptance criterion 08)."""
    lam = cfg.coupling
    kp3 = cfg.k_plus[2] / cfg.mu_plus
    km3 = cfg.k_minus[2] / cfg.mu_minus
    h = cfg.height
    al_m, be_m, c_m = 0.3, 0.5, -0.4
    c_p = 0.7
    v0 = km3 * be_m
    be_p = v0 / kp3
    al_p = al_m + v0 / lam

    def phi(x1, x2):
        return np.cos(math.pi * x1) * np.cos(math.pi * x2)

    def psi_p(x3):
        return al_p + be_p * x3 + c_p * x3 ** 2

    def psi_m(x3):
        return al_m + be_m * (x3 + h) + c_m * (x3 + h) ** 2

    kp = cfg.k_plus / cfg.mu_plus
    km = cfg.k_minus / cfg.mu_minus

    def p_plus(x1, x2, x3):
        return phi(x1, x2) * psi_p(x3)

    def p_minus(x1, x2, x3):
        return phi(x1, x2) * psi_m(x3)

    def src_plus(x1, x2, x3):
        return phi(x1, x2) * ((kp[0] + kp[1]) * math.pi ** 2 * psi_p(x3)
                              - kp[2] * 2.0 * c_p)

    def src_minus(x1, x2, x3):
        return phi(x1, x2) * ((km[0] + km[1]) * math.pi ** 2 * psi_m(x3)
                              - km[2] * 2.0 * c_m)

    return p_plus, p_minus, src_plus, src_minus


def _mms_error(cfg: FlowConfig, sol, p_plus, p_minus) -> float:
    x1, x2 = cfg.horizontal_centers()
    Xp = np.meshgrid(x1, x2, cfg.vertical_centers("plus"), indexing="ij")
    Xm = np.meshgrid(x1, x2, cfg.vertical_centers("minus"), indexing="ij")
    return max(float(np.max(np.abs(sol.p_plus - p_plus(*Xp)))),
               float(np.max(np.abs(sol.p_minus - p_minus(*Xm)))))


def _timed(name: str, body) -> Op:
    """Run one operation body(op) and time it, gates included.  An
    exception from the program is a failure the program reported."""
    op = Op(name=name, seconds=0.0)
    t0 = time.perf_counter()
    try:
        body(op)
    except (ValueError, ArithmeticError, RuntimeError,
            np.linalg.LinAlgError) as exc:
        op.fail(f"{type(exc).__name__}: {exc}", wrong=False)
    op.seconds = time.perf_counter() - t0
    return op


def _flow_gates(op: Op, sol):
    if not sol.residual <= FLOW_RESIDUAL_GATE:
        op.fail(f"flow residual {sol.residual:.3e}")
    cont = sol.flux_continuity_gap()
    if not cont <= FLOW_CONTINUITY_GATE:
        op.fail(f"flow flux continuity gap {cont:.3e}")
    op.digest = _array_digest(sol.p_plus, sol.p_minus)


def _transport_gates(op: Op, sol):
    """The CLI's transport gates; every workload's boundary data are
    nonnegative, so the concentration must be too."""
    if not sol.residual <= TRANSPORT_RESIDUAL_GATE:
        op.fail(f"transport residual {sol.residual:.3e}")
    balance = limit_transport.mass_balance_gap(sol)
    if not balance <= TRANSPORT_BALANCE_GATE:
        op.fail(f"transport balance gap {balance:.3e}")
    lo, _ = sol.extrema()
    if not lo >= NEGATIVITY_GATE:
        op.fail(f"negative concentration {lo:.3e}")
    op.digest = _array_digest(sol.u_plus, sol.u_minus)


class Beds:
    """Five separable coupled-bed solves per size."""

    def __init__(self, seed: int, sizes=BED_SIZES,
                 setup: BedSetup | None = None):
        self.sizes = tuple(sizes)
        self.setup = setup if setup is not None else bed_setup(seed)
        self.mms_reference = load_reference()["beds_mms_error"]
        # the seed also sets the surface diffusivity of the last solve
        rng = random.Random(seed)
        self.surface_diffusion = (0.2 + 0.4 * rng.random(),
                                  0.2 + 0.4 * rng.random())

    def run_pass(self) -> tuple[list[Op], float]:
        ops = []
        mms_errors = {}
        t0 = time.perf_counter()
        for n in self.sizes:
            ops += self._size_ops(n, mms_errors)
        wall = time.perf_counter() - t0
        return ops, wall

    def _size_ops(self, n: int, mms_errors: dict) -> list[Op]:
        setup = self.setup
        fcfg = flow_config(setup, n)
        f = setup.cfg.flow
        tag = f"n{n}"

        def flow_ends(op):
            sol = limit_flow.solve_limit_flow(fcfg, FlowBC(
                kind="pressure_ends", p_top=f["p_top"],
                p_bottom=f["p_bottom"]))
            _flow_gates(op, sol)

        def flow_closed(op):
            sol = limit_flow.solve_limit_flow(fcfg, FlowBC(kind="closed"))
            _flow_gates(op, sol)

        def flow_dirichlet(op):
            p_plus, p_minus, src_p, src_m = manufactured_flow(fcfg)
            sol = limit_flow.solve_limit_flow(
                fcfg, FlowBC(kind="dirichlet", p_plus=p_plus,
                             p_minus=p_minus),
                source_plus=src_p, source_minus=src_m)
            _flow_gates(op, sol)
            err = _mms_error(fcfg, sol, p_plus, p_minus)
            mms_errors[n] = err
            ref = self.mms_reference.get(str(n))
            if ref is not None and _rel_gap(err, ref) > MMS_RTOL:
                op.fail(f"manufactured-solution error {err:.6e} differs "
                        f"from reference {ref:.6e}")
            smaller = [m for m in mms_errors if m < n]
            if smaller:
                m = max(smaller)
                order = math.log(mms_errors[m] / err) / math.log(n / m)
                if not order >= MMS_MIN_ORDER:
                    op.fail(f"manufactured-solution order {order:.2f} "
                            f"between n={m} and n={n}")

        def transport_plain(op):
            sol = limit_transport.solve_limit_transport(transport_config(setup, n))
            _transport_gates(op, sol)

        def transport_surface(op):
            sol = limit_transport.solve_limit_transport(transport_config(
                setup, n, surface_diffusion=self.surface_diffusion))
            _transport_gates(op, sol)

        return [_timed(f"flow_pressure_ends.{tag}", flow_ends),
                _timed(f"flow_closed.{tag}", flow_closed),
                _timed(f"flow_dirichlet.{tag}", flow_dirichlet),
                _timed(f"transport.{tag}", transport_plain),
                _timed(f"transport_surface.{tag}", transport_surface)]


class BedsAdvective:
    """Transport with horizontally varying velocities: upwind assembly and
    the general sparse route."""

    def __init__(self, seed: int, sizes=BED_SIZES,
                 setup: BedSetup | None = None):
        self.sizes = tuple(sizes)
        self.setup = setup if setup is not None else bed_setup(seed)
        rng = random.Random(seed)
        draw = [rng.uniform(0.5, 1.5) for _ in range(6)]
        shift = [rng.uniform(0.0, 1.0) for _ in range(4)]
        a1, a2, a3, b1, b2, b3 = draw
        s1, s2, s3, s4 = shift
        pi = math.pi

        # Bounded fields that vary in x1 and x2 in both beds; the vertical
        # component keeps a downward mean so the exchange stays advective.
        def vel_plus(x1, x2, x3):
            return (a1 * np.sin(pi * (x2 + s1)),
                    a2 * np.cos(pi * (x1 + s2)),
                    -0.5 * a3 * (1.0 + 0.5 * np.cos(2 * pi * x1)
                                 * np.cos(2 * pi * x2)))

        def vel_minus(x1, x2, x3):
            return (b1 * np.cos(pi * (x1 + x2 + s3)),
                    -b2 * np.sin(pi * (x1 + s4)),
                    -0.5 * b3 * (1.0 + 0.5 * np.sin(pi * x1)
                                 * np.sin(pi * x2)))

        def surface_velocity(x1, x2):
            return (0.3 * a1 * np.sin(2 * pi * x2),
                    -0.3 * b1 * np.sin(2 * pi * x1))

        self.extra = dict(vel_plus=vel_plus, vel_minus=vel_minus,
                          surface_velocity=surface_velocity,
                          surface_diffusion=(0.2 + 0.2 * s1,
                                             0.2 + 0.2 * s2))

    def run_pass(self) -> tuple[list[Op], float]:
        ops = []
        t0 = time.perf_counter()
        for n in self.sizes:
            cfg = transport_config(self.setup, n, **self.extra)

            def body(op, cfg=cfg):
                sol = limit_transport.solve_limit_transport(cfg)
                _transport_gates(op, sol)

            ops.append(_timed(f"transport_advective.n{n}", body))
        wall = time.perf_counter() - t0
        return ops, wall


WORKLOADS = {"pipeline": Pipeline, "beds": Beds,
             "beds_advective": BedsAdvective}
