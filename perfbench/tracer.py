"""Per-layer tracing from outside the package.

`Tracer.install()` replaces every public function of each layer module, in
every fisshom module namespace that holds it, by a timing wrapper, and adds
wrappers on the few methods that count work (phase draws, path
evaluations) plus SuperLU's factorization, whose fill `solve_sparse` does
not expose.  `Tracer.restore()` puts every original back.  Each call is a
span: its inclusive time, and its self time (the part no nested traced call
covers), are summed per key.

Layer keys are module names; `Tracer.metrics()` turns the sums into the
per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("stochastic", "fissures", "cell", "fissure_transport",
          "limit_flow", "limit_transport", "verify", "config", "cli",
          "_numerics")
RUNGS = (8, 16, 32, 64)
BED_SIZES = (16, 24)
SWEEPS = ("measure", "energy", "profile", "exchange")
STAGES = ("cell", "flow", "transport", "fissure", "ergodic", "sweep")
# counted methods: (module, class, method)
METHODS = (("stochastic", "PhaseSequence", "alpha"),
           ("stochastic", "PhaseSequence", "beta"),
           ("stochastic", "PhaseSequence", "window"),
           ("stochastic", "FourierPath", "__call__"),
           ("stochastic", "ShotNoisePath", "__call__"),
           ("stochastic", "ConstantPath", "__call__"))


def _modules() -> dict:
    mods = {"fisshom": importlib.import_module("fisshom")}
    for layer in LAYERS:
        mods[layer] = importlib.import_module(f"fisshom.{layer}")
    return mods


def public_functions(module) -> dict:
    """Functions defined in `module` whose names do not start with '_'."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.phase_keys = set()
        self._stack = []            # [child seconds, key] per open span
        self._patches = []          # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def _wrap(self, key: str, fn, hook=None):
        stack = self._stack
        calls = self.calls
        inclusive = self.inclusive
        self_time = self.self_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, key]      # seconds covered by nested spans
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                dt = clock() - t0
                if hook is not None:
                    hook(self, args, kwargs, result, dt)
            except BaseException:
                dt = clock() - t0
                raise
            finally:
                # the caller is charged for the hook too, so a hook never
                # shows up as the caller's self time
                stack.pop()
                if stack:
                    stack[-1][0] += clock() - t0
                calls[key] += 1
                inclusive[key] += dt
                self_time[key] += dt - frame[0]
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def caller(self) -> str | None:
        """Inside a hook: key of the span that made the hooked call."""
        return self._stack[-2][1] if len(self._stack) > 1 else None

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = _modules()
        for layer in LAYERS:
            for name, fn in public_functions(mods[layer]).items():
                key = f"{layer}.{name}"
                wrapper = self._wrap(key, fn, _HOOKS.get(key))
                # every namespace that imported the function
                for mod in mods.values():
                    if vars(mod).get(name) is fn:
                        self._set(mod, name, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            fn = vars(cls)[meth]
            key = f"{layer}.{cls_name}.{meth}"
            self._set(cls, meth, self._wrap(key, fn, _HOOKS.get(key)))
        spla = mods["_numerics"].spla
        self._set(spla, "splu", self._wrap("scipy.splu", spla.splu,
                                           _splu_hook))
        return self

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- metrics ---------------------------------------------------------

    def metrics(self, stage_seconds: dict | None = None,
                run_wall: float | None = None) -> dict:
        """Per-layer metrics; stage seconds come from the CLI manifest."""
        inc = self.inclusive
        calls = self.calls
        cnt = self.counts
        draws = cnt["stochastic.phase_draws"]
        m = {
            "stochastic.estimate_brackets_s": inc["stochastic.estimate_brackets"],
            "stochastic.ergodic_average_s": inc["stochastic.ergodic_average"],
            "stochastic.ergodic_average_calls": calls["stochastic.ergodic_average"],
            "stochastic.phase_draws": draws,
            "stochastic.phase_draw_reuse": (draws / len(self.phase_keys)
                                            if self.phase_keys else 0.0),
            "stochastic.path_evals": cnt["stochastic.path_evals"],
            "stochastic.path_points": cnt["stochastic.path_points"],
            "fissures.enumerate_fissures_s": inc["fissures.enumerate_fissures"],
            "fissures.enumerate_fissures_calls": calls["fissures.enumerate_fissures"],
            "fissures.tubes": cnt["fissures.tubes"],
            "fissures.fissure_volume_integral_s": inc["fissures.fissure_volume_integral"],
            "fissures.surface_integral_s": inc["fissures.surface_integral"],
        }
        for r in RUNGS:
            m[f"fissures.eps_{r}_s"] = inc[f"fissures.eps_{r}"]
        for name in ("solve_poisson_cell", "solve_stokes_cell",
                     "solve_darcy_cell", "solve_scalar_cell_3d",
                     "solve_scalar_cell_2d", "compute_kstar"):
            m[f"cell.{name}_s"] = inc[f"cell.{name}"]
        tube_keys = ("fissure_transport.solve_w", "fissure_transport.solve_z")
        m.update({
            "fissure_transport.pair_brackets_s": inc["fissure_transport.pair_brackets"],
            "fissure_transport.pair_brackets_calls": calls["fissure_transport.pair_brackets"],
            "fissure_transport.tube_solves": sum(calls[k] for k in tube_keys),
            "fissure_transport.tube_solve_s": sum(inc[k] for k in tube_keys),
            "fissure_transport.fine_interface_fluxes_s": inc["fissure_transport.fine_interface_fluxes"],
            "fissure_transport.limit_comparison_s": inc["fissure_transport.limit_comparison"],
            "fissure_transport.dual_route_gap_s": inc["fissure_transport.dual_route_gap"],
        })
        for n in BED_SIZES:
            m[f"limit_flow.solve_limit_flow_s.n{n}"] = inc[f"limit_flow.n{n}"]
        m["limit_flow.unknowns"] = cnt["limit_flow.unknowns"]
        for n in BED_SIZES:
            m[f"limit_transport.solve_limit_transport_s.n{n}"] = \
                inc[f"limit_transport.n{n}"]
        m.update({
            "numerics.solve_sparse_s": inc["_numerics.solve_sparse"],
            "numerics.solve_sparse_calls": calls["_numerics.solve_sparse"],
            "numerics.matrix_nnz": cnt["numerics.matrix_nnz"],
            "numerics.lu_fill": cnt["numerics.lu_fill"],
            "numerics.solve_spd_s": inc["_numerics.solve_spd"],
            "numerics.solve_spd_fallbacks": cnt["numerics.solve_spd_fallbacks"],
            "numerics.gauss_legendre_calls": calls["_numerics.gauss_legendre"],
        })
        for sweep in SWEEPS:
            m[f"verify.{sweep}_s"] = inc[f"verify.{sweep}"]
        m["verify.self_s"] = sum((v for k, v in self.self_time.items()
                                  if k.startswith("verify.")), 0.0)
        m["config.parse_config_s"] = inc["config.parse_config"]
        stage_seconds = stage_seconds or {}
        for stage in STAGES:
            m[f"cli.stage_{stage}_s"] = float(stage_seconds.get(stage, 0.0))
        m["cli.self_s"] = (run_wall - sum(stage_seconds.values())
                           if run_wall is not None and stage_seconds else 0.0)
        return m


# ---------------------------------------------------------------------------
# hooks: counts and keyed times, called after the traced call returns


def _phase_hook(tag):
    def hook(tracer, args, kwargs, result, dt):
        seq, idx = args[0], args[1]
        size = 1
        try:
            size = len(idx)
            keys = [(seq.seed, tag, int(i)) for i in idx]
        except TypeError:
            keys = [(seq.seed, tag, int(idx))]
        tracer.counts["stochastic.phase_draws"] += size
        tracer.phase_keys.update(keys)
    return hook


def _window_hook(tracer, args, kwargs, result, dt):
    seq, lo, hi = args[0], int(args[1]), int(args[2])
    tracer.counts["stochastic.phase_draws"] += 2 * max(0, hi - lo)
    for tag in ("alpha", "beta"):
        tracer.phase_keys.update((seq.seed, tag, i) for i in range(lo, hi))


def _path_hook(tracer, args, kwargs, result, dt):
    tracer.counts["stochastic.path_evals"] += 1
    t = args[1] if len(args) > 1 else kwargs.get("t")
    tracer.counts["stochastic.path_points"] += int(getattr(t, "size", 1))


def _rung(tracer, eps, dt):
    r = round(1.0 / eps) if eps > 0 else 0
    if r in RUNGS and abs(r * eps - 1.0) < 1e-12:
        tracer.inclusive[f"fissures.eps_{r}"] += dt


def _enumerate_hook(tracer, args, kwargs, result, dt):
    tracer.counts["fissures.tubes"] += len(result)
    _rung(tracer, args[0].epsilon, dt)


def _volume_hook(tracer, args, kwargs, result, dt):
    if args[0]:
        _rung(tracer, args[0][0].geometry.epsilon, dt)


def _surface_hook(tracer, args, kwargs, result, dt):
    _rung(tracer, args[0].epsilon, dt)


def _flow_hook(tracer, args, kwargs, result, dt):
    tracer.inclusive[f"limit_flow.n{args[0].shape[0]}"] += dt
    tracer.counts["limit_flow.unknowns"] += (result.p_plus.size
                                             + result.p_minus.size)


def _transport_hook(tracer, args, kwargs, result, dt):
    tracer.inclusive[f"limit_transport.n{args[0].shape[0]}"] += dt


def _solve_sparse_hook(tracer, args, kwargs, result, dt):
    tracer.counts["numerics.matrix_nnz"] += int(args[0].nnz)
    if tracer.caller() == "_numerics.solve_spd":
        tracer.counts["numerics.solve_spd_fallbacks"] += 1


def _splu_hook(tracer, args, kwargs, result, dt):
    tracer.counts["numerics.lu_fill"] += int(result.L.nnz + result.U.nnz)


def _sweep_hook(tracer, args, kwargs, result, dt):
    name = args[0] if args else kwargs.get("name")
    tracer.inclusive[f"verify.{name}"] += dt


_HOOKS = {
    "stochastic.PhaseSequence.alpha": _phase_hook("alpha"),
    "stochastic.PhaseSequence.beta": _phase_hook("beta"),
    "stochastic.PhaseSequence.window": _window_hook,
    "stochastic.FourierPath.__call__": _path_hook,
    "stochastic.ShotNoisePath.__call__": _path_hook,
    "stochastic.ConstantPath.__call__": _path_hook,
    "fissures.enumerate_fissures": _enumerate_hook,
    "fissures.fissure_volume_integral": _volume_hook,
    "fissures.surface_integral": _surface_hook,
    "limit_flow.solve_limit_flow": _flow_hook,
    "limit_transport.solve_limit_transport": _transport_hook,
    "_numerics.solve_sparse": _solve_sparse_hook,
    "verify.run_sweep": _sweep_hook,
}
