"""End-to-end acceptance: ten verification criteria with pinned tolerances.

Each criterion prints one PASS/FAIL line with its measured values (run with
-s to see them) and is an ordinary assertion, so the module doubles as the
release gate.  Sweeps use the module defaults: medians over 20 realizations
on fixed ladders, deterministic seeds throughout.
"""

import math
import time

import numpy as np

from fisshom._numerics import (derive_seed, fit_loglog_slope,
                               uniform_from_hash)
from fisshom.cell import compute_kstar, solve_poisson_cell
from fisshom.fissure_transport import (FissureODEConfig, dual_route_gap,
                                       transmission_coeffs)
from fisshom.fissure_transport import vertical_velocity as interface_velocity
from fisshom.fissures import GeometryParams
from fisshom.limit_flow import FlowBC, solve_limit_flow
from fisshom.limit_transport import (TransportConfig, mass_balance_gap,
                                     solve_limit_transport)
from fisshom.stochastic import (ProcessParams, build_path, constant_stats,
                                estimate_brackets)
from fisshom.verify import (APERTURE_DEFAULT, APERTURE_FAST,
                            CENTERLINE_DEFAULT, _draw_paths, _single_fissure,
                            energy_density_sweep, flux_exchange_constant_gap,
                            flux_exchange_sweep, limit_profile_constant_gap,
                            limit_profile_sweep, measure_limit_sweep)

from _oracles import K0_SQUARE
from test_limit_flow import base_config, mms_fields

COTH_ONE = 1.3130352854993312


def report(num: int, name: str, ok: bool, detail: str):
    line = f"{'PASS' if ok else 'FAIL'} [{num:02d}] {name}: {detail}"
    print("\n" + line, flush=True)
    assert ok, line


def sweep_line(summary, metrics) -> str:
    parts = []
    for m in metrics:
        vals = "->".join("%.3g" % v for v in summary.medians[m])
        parts.append(f"{m} {vals}")
    return "; ".join(parts)


def test_criterion_01_tube_drag_constant():
    t0 = time.perf_counter()
    cell = solve_poisson_cell(256)
    elapsed = time.perf_counter() - t0
    k0 = cell.k0
    ref_gap = abs(k0 - 0.035144)
    oracle_gap = abs(k0 - K0_SQUARE)
    ok = (ref_gap <= 1e-4 and oracle_gap <= 2e-5
          and cell.identity_gap <= 1e-8 and elapsed < 10.0)
    report(1, "tube drag constant",
           ok, f"k0={k0:.8f} (ref gap {ref_gap:.1e}, series oracle gap "
               f"{oracle_gap:.1e}, integral identity {cell.identity_gap:.1e}, "
               f"{elapsed:.1f} s)")


def test_criterion_02_effective_tensor_sanity():
    stats = constant_stats(0.5)
    tensors = {
        "drag": solve_poisson_cell(64).k0 * np.eye(2),
        "interface+": compute_kstar(stats, 1.3 * np.eye(3)),
        "interface-": compute_kstar(stats, 0.8 * np.eye(3)),
    }
    worst_sym = max(float(np.max(np.abs(t - t.T)))
                    for t in tensors.values())
    min_eig = min(float(np.linalg.eigvalsh(t)[0]) for t in tensors.values())
    ok = worst_sym <= 1e-12 and min_eig > 0.0
    report(2, "effective tensor sanity",
           ok, f"symmetry {worst_sym:.1e}, min eigenvalue {min_eig:.3e}")


def test_criterion_03_ergodic_brackets():
    t0 = time.perf_counter()
    const = ProcessParams(kind="aperture_q", mean=0.45, amplitudes=(),
                          frequencies=(), seed=1, lower_bound=0.4,
                          upper_bound=0.5)
    st_c = estimate_brackets(build_path(const), 500.0)
    exact = constant_stats(0.45)
    const_gap = max(abs(st_c.mean_q - exact.mean_q),
                    abs(st_c.mean_q2 - exact.mean_q2),
                    abs(st_c.mean_inv_q2 - exact.mean_inv_q2))

    p = APERTURE_DEFAULT
    analytic_q2 = p.mean ** 2 + 0.5 * sum(a * a for a in p.amplitudes)
    horizons = (1e2, 1e3, 1e4)
    stderrs = []
    analytic_gap = math.inf
    for T in horizons:
        st = estimate_brackets(build_path(p), T, window_len=10.0)
        stderrs.append(st.stderr)
        analytic_gap = max(abs(st.mean_q - p.mean),
                           abs(st.mean_q2 - analytic_q2))
    slope = fit_loglog_slope(horizons, stderrs)
    elapsed = time.perf_counter() - t0
    ok = (const_gap <= 1e-12 and analytic_gap <= 1e-4
          and -0.65 <= slope <= -0.35 and elapsed < 30.0)
    report(3, "ergodic brackets",
           ok, f"constant gap {const_gap:.1e}, analytic gap at T=1e4 "
               f"{analytic_gap:.1e}, stderr rate {slope:.3f}, "
               f"{elapsed:.1f} s")


def test_criterion_04_measure_limit():
    t0 = time.perf_counter()
    s = measure_limit_sweep()
    elapsed = time.perf_counter() - t0
    metrics = ("rel_err_const", "rel_err_linear")
    mono = all(s.strictly_decreasing(m) for m in metrics)
    final = max(s.final_median(m) for m in metrics)
    ok = mono and final <= 0.05 and elapsed < 120.0
    trend = "monotone" if mono else "NOT monotone"
    report(4, "fissure measure limit",
           ok, f"{sweep_line(s, metrics)} ({trend}, final {final:.3f}, "
               f"{elapsed:.0f} s)")


def test_criterion_05_tube_profile_limits():
    t0 = time.perf_counter()
    s = limit_profile_sweep()
    elapsed = time.perf_counter() - t0
    metrics = s.metric_names
    mono = all(s.strictly_decreasing(m) for m in metrics)
    final = max(s.final_median(m) for m in metrics)
    exact = limit_profile_constant_gap()
    ok = mono and final <= 0.02 and exact <= 1e-10 and elapsed < 60.0
    report(5, "tube profile limits",
           ok, f"{sweep_line(s, metrics)} (final {final:.4f}, constant "
               f"geometry {exact:.1e}, {elapsed:.0f} s)")


def test_criterion_06_dual_route_agreement():
    worst = 0.0
    for k in range(100):
        def u(tag):
            return float(uniform_from_hash(83, k, tag))
        diffusion = 0.7 + 1.3 * u(1)
        reaction = 2.5 * u(2)
        v3 = -1.5 + 3.0 * u(3)
        eps = 0.05 + 0.15 * u(4)
        params = APERTURE_FAST if u(5) > 0.5 else APERTURE_DEFAULT
        geom = GeometryParams(epsilon=eps, theta=0.5, height=1.0)
        q_path, r_path, phases = _draw_paths(derive_seed(83, k), 0, params,
                                             CENTERLINE_DEFAULT, 0.3)
        fissure = _single_fissure(geom, q_path, r_path, phases)
        cfg = FissureODEConfig(fissure=fissure, diffusion=diffusion,
                               reaction=reaction, v3=v3)
        worst = max(worst, dual_route_gap(cfg))
    ok = worst <= 1e-8
    report(6, "dual-route tube solves",
           ok, f"worst integral-vs-marching gap over 100 random "
               f"configurations {worst:.2e}")


def test_criterion_07_energy_density():
    t0 = time.perf_counter()
    torsion = solve_poisson_cell(96)
    s_vert = energy_density_sweep(test_field=(0.0, 0.0, 0.9),
                                  torsion=torsion)
    s_tan = energy_density_sweep(test_field=(0.7, -0.4, 0.0),
                                 torsion=torsion)
    elapsed = time.perf_counter() - t0
    mono = (s_vert.strictly_decreasing("rel_err_total")
            and s_tan.strictly_decreasing("rel_err_total"))
    final = max(s_vert.final_median("rel_err_total"),
                s_tan.final_median("rel_err_total"))
    ok = mono and final <= 0.05 and elapsed < 300.0
    vv = "->".join("%.3g" % v for v in s_vert.medians["rel_err_total"])
    tv = "->".join("%.3g" % v for v in s_tan.medians["rel_err_total"])
    report(7, "fissure energy density",
           ok, f"vertical {vv}; tangential {tv} (final {final:.4f}, "
               f"{elapsed:.0f} s)")


def test_criterion_08_coupled_flow():
    errs = []
    sizes = (6, 12, 24)
    continuity = math.inf
    for n in sizes:
        cfg = base_config(shape=(n, n, n, n))
        p_plus, p_minus, src_p, src_m, _ = mms_fields(cfg)
        bc = FlowBC(kind="dirichlet", p_plus=p_plus, p_minus=p_minus)
        sol = solve_limit_flow(cfg, bc, source_plus=src_p,
                               source_minus=src_m)
        x1, x2 = cfg.horizontal_centers()
        zp = cfg.vertical_centers("plus")
        zm = cfg.vertical_centers("minus")
        Xp = np.meshgrid(x1, x2, zp, indexing="ij")
        Xm = np.meshgrid(x1, x2, zm, indexing="ij")
        errs.append(max(
            float(np.max(np.abs(sol.p_plus - p_plus(*Xp)))),
            float(np.max(np.abs(sol.p_minus - p_minus(*Xm))))))
        continuity = sol.flux_continuity_gap()
    # errors shrink with h, so the log-log slope against h is the order
    order = fit_loglog_slope([1.0 / n for n in sizes], errs)
    v_gap = abs(interface_velocity(2.5, 1.0, 0.035144, 1.2, 0.9,
                                   0.25445, 4.22788)
                - (2.5 - 1.0) * 0.035144
                / (1.2 * 0.9 * 0.25445 * 4.22788))
    ok = order >= 1.8 and continuity <= 1e-8 and v_gap <= 1e-12
    report(8, "coupled flow solver",
           ok, f"manufactured-solution order {order:.2f}, interface flux "
               f"continuity {continuity:.1e}, tube velocity formula gap "
               f"{v_gap:.1e}")


def test_criterion_09_coupled_transport():
    ex_unit = transmission_coeffs(1.0, 1.0, 0.0, 1.0, 1.0, 1.0)
    coth_gap = abs(ex_unit.exchange_scale * ex_unit.cosh_factor - COTH_ONE)

    ex_zero = transmission_coeffs(0.9, 1e-12, 0.4, 1.0, 0.2545, 4.2279)
    cont_gap = abs(ex_zero.flux_top(1.2, 0.3) - ex_zero.flux_bottom(1.2, 0.3))

    stats = constant_stats(0.5)
    exchange = transmission_coeffs(0.9, 1.1, 0.4, 1.0, stats.mean_q2,
                                   stats.mean_inv_q2)
    cfg = TransportConfig(diff_plus=(1.0, 1.0, 1.0),
                          diff_minus=(0.8, 0.8, 1.2), exchange=exchange,
                          stats=stats, reaction_plus=0.3, reaction_minus=0.1,
                          cell_porosity=0.9, bc_plus=1.0, bc_minus=0.0,
                          shape=(6, 6, 6, 6))
    sol = solve_limit_transport(cfg)
    lo, _ = sol.extrema()
    balance = mass_balance_gap(sol)
    ok = (coth_gap <= 1e-4 and cont_gap <= 1e-6 and lo >= -1e-12
          and balance <= 1e-8)
    report(9, "coupled transport solver",
           ok, f"unit-layer self-coefficient gap {coth_gap:.1e}, zero-"
               f"reaction flux continuity {cont_gap:.1e}, minimum "
               f"concentration {lo:.1e}, balance defect {balance:.1e}")


def test_criterion_10_interface_flux_limit():
    t0 = time.perf_counter()
    s = flux_exchange_sweep()
    elapsed = time.perf_counter() - t0
    metrics = s.metric_names
    mono = all(s.strictly_decreasing(m) for m in metrics)
    final = max(s.final_median(m) for m in metrics)
    exact = flux_exchange_constant_gap()
    ok = mono and final <= 0.02 and exact <= 1e-10
    report(10, "interface flux limit",
           ok, f"{sweep_line(s, metrics)} (final {final:.4f}, constant "
               f"geometry {exact:.1e}, {elapsed:.0f} s)")
