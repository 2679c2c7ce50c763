"""Experiment configuration: schema-validated YAML with explicit defaults.

One structured file drives every pipeline stage.  Dimensional keys carry a
unit-role suffix (h_length, R_rate, depth_plus_length) so bracket constants
and physical coefficients cannot be silently swapped.  Every key is
optional; an empty file runs the documented default experiment.  Violations
raise ConfigError with the full key path and, for syntax errors, the line.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import yaml

from .stochastic import ProcessParams


class ConfigError(Exception):
    """Invalid experiment configuration; message carries the key path."""


class _StrictLoader(yaml.SafeLoader):
    """SafeLoader that rejects duplicate mapping keys with a location."""


def _construct_mapping(loader, node, deep=False):
    seen = {}
    for key_node, value_node in node.value:
        key = loader.construct_object(key_node, deep=deep)
        if key in seen:
            raise ConfigError(
                f"duplicate key '{key}' at line {key_node.start_mark.line + 1}")
        seen[key] = loader.construct_object(value_node, deep=deep)
    return seen


_StrictLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _construct_mapping)


def _number(path: str, value, lo=None, hi=None, open_lo=False,
            open_hi=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    if lo is not None and (v < lo or (open_lo and v == lo)):
        raise ConfigError(f"{path}: must be {'>' if open_lo else '>='} {lo}, "
                          f"got {value}")
    if hi is not None and (v > hi or (open_hi and v == hi)):
        raise ConfigError(f"{path}: must be {'<' if open_hi else '<='} {hi}, "
                          f"got {value}")
    return v


def _integer(path: str, value, lo=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{path}: must be >= {lo}, got {value}")
    return value


def _numbers(path: str, value, length=None) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path}: expected a list of numbers, got {value!r}")
    if length is not None and len(value) != length:
        raise ConfigError(f"{path}: expected {length} entries, "
                          f"got {len(value)}")
    return tuple(_number(f"{path}[{k}]", v) for k, v in enumerate(value))


def _positives(path: str, value, length: int) -> tuple[float, ...]:
    """Diagonal coefficients: every entry > 0, as the solvers require."""
    values = _numbers(path, value, length)
    for k, v in enumerate(values):
        # written so that NaN fails: it compares False with any bound
        if not v > 0:
            raise ConfigError(f"{path}[{k}]: must be > 0, got {value[k]}")
    return values


def _shape(path: str, value, vertical_lo: int) -> list[int]:
    """Bed grid (n1, n2, nz_plus, nz_minus): at least 2 horizontal and
    `vertical_lo` vertical cells."""
    if isinstance(value, (list, tuple)):
        shape = [_integer(f"{path}[{k}]", v, lo=2 if k < 2 else vertical_lo)
                 for k, v in enumerate(value)]
        if len(shape) == 4:
            return shape
    raise ConfigError(f"{path}: expected 4 entries "
                      "(n1, n2, nz_plus, nz_minus)")


def _choice(path: str, value, options) -> str:
    if value not in options:
        raise ConfigError(f"{path}: expected one of {sorted(options)}, "
                          f"got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description (defaults applied)."""

    base_seed: int
    output_dir: str
    aperture: ProcessParams
    centerline: ProcessParams
    phase_bound: float
    epsilon: float
    theta: float
    h_length: float
    x1_extent: tuple[float, float]
    x2_extent: tuple[float, float]
    cell_resolution: int
    flow: dict = field(repr=False)
    transport: dict = field(repr=False)
    ergodic: dict = field(repr=False)
    sweep: dict = field(repr=False)

    def canonical(self) -> dict:
        """JSON-serializable resolved form (hashing and the manifest)."""

        def plain(value):
            if isinstance(value, dict):
                return {k: plain(v) for k, v in sorted(value.items())}
            if isinstance(value, (list, tuple)):
                return [plain(v) for v in value]
            return value

        proc = {}
        for name, p in (("aperture", self.aperture),
                        ("centerline", self.centerline)):
            proc[name] = {"mean": p.mean, "amplitudes": list(p.amplitudes),
                          "frequencies_per_length": list(p.frequencies),
                          "lower_bound": p.lower_bound,
                          "upper_bound": p.upper_bound,
                          "deriv_bound": p.deriv_bound}
        return plain({
            "run": {"base_seed": self.base_seed,
                    "output_dir": self.output_dir},
            "process": proc,
            "phases": {"bound": self.phase_bound},
            "geometry": {"epsilon": self.epsilon, "theta": self.theta,
                         "h_length": self.h_length,
                         "x1_extent": list(self.x1_extent),
                         "x2_extent": list(self.x2_extent)},
            "cell": {"resolution": self.cell_resolution},
            "flow": self.flow,
            "transport": self.transport,
            "ergodic": self.ergodic,
            "sweep": self.sweep,
        })

    def config_hash(self) -> str:
        text = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


_SECTIONS = ("run", "process", "phases", "geometry", "cell", "flow",
             "transport", "ergodic", "sweep")

_SWEEP_TARGETS = ("measure", "energy", "profile", "exchange")


def _section(data: dict, name: str, known: tuple[str, ...]) -> dict:
    """The mapping at the dotted key path `name`, its last part a key of
    `data`; raises ConfigError naming the path of an unknown key."""
    sec = data.get(name.rsplit(".", 1)[-1], {})
    if sec is None:
        sec = {}
    if not isinstance(sec, dict):
        raise ConfigError(f"{name}: expected a mapping, got {sec!r}")
    for key in sec:
        if key not in known:
            raise ConfigError(f"{name}.{key}: unknown key (known keys: "
                              f"{', '.join(known)})")
    return sec


def _process(sec: dict, path: str, kind: str, defaults: dict,
             seed: int) -> ProcessParams:
    merged = dict(defaults)
    merged.update(sec)
    amps = _numbers(f"{path}.amplitudes", merged["amplitudes"])
    freqs = _numbers(f"{path}.frequencies_per_length",
                     merged["frequencies_per_length"])
    if len(amps) != len(freqs):
        raise ConfigError(f"{path}: amplitudes and frequencies_per_length "
                          f"must have equal length")
    kw = {}
    for bound in ("lower_bound", "upper_bound", "deriv_bound"):
        if merged.get(bound) is not None:
            kw[bound] = _number(f"{path}.{bound}", merged[bound])
    try:
        return ProcessParams(kind=kind,
                             mean=_number(f"{path}.mean", merged["mean"]),
                             amplitudes=amps, frequencies=freqs,
                             seed=seed, **kw)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_config(path: str | None = None, text: str | None = None,
                 overrides: dict | None = None) -> ExperimentConfig:
    """Load, validate, and resolve an experiment file.

    Either a file path or the raw text may be given; omitting both yields
    the default experiment.  `overrides` is a two-level {section: {key:
    value}} mapping applied after loading (command-line flags); overridden
    values pass through the same validation.
    """
    if text is None:
        if path is None:
            text = ""
        else:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        data = yaml.load(text, Loader=_StrictLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"config is not valid YAML{where}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping of sections")
    for section, values in (overrides or {}).items():
        merged = dict(data.get(section) or {})
        merged.update(values)
        data[section] = merged
    for key in data:
        if key not in _SECTIONS:
            raise ConfigError(f"unknown section '{key}' (known sections: "
                              f"{', '.join(_SECTIONS)})")

    run = _section(data, "run", ("base_seed", "output_dir"))
    base_seed = _integer("run.base_seed", run.get("base_seed", 7), lo=0)
    output_dir = run.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("run.output_dir: expected a nonempty string")

    process = _section(data, "process", ("aperture", "centerline"))
    ap_sec = _section(process, "process.aperture",
                      ("mean", "amplitudes", "frequencies_per_length",
                       "lower_bound", "upper_bound", "deriv_bound"))
    # build_path reads no range bounds for the centerline (|r| <= 1)
    ce_sec = _section(process, "process.centerline",
                      ("mean", "amplitudes", "frequencies_per_length",
                       "deriv_bound"))
    aperture = _process(ap_sec, "process.aperture", "aperture_q",
                        {"mean": 0.5, "amplitudes": [0.08, 0.05],
                         "frequencies_per_length": [1.0, math.sqrt(2.0)],
                         "lower_bound": 0.3, "upper_bound": 0.7,
                         "deriv_bound": 0.25},
                        seed=base_seed * 2 + 1)
    centerline = _process(ce_sec, "process.centerline", "centerline_r",
                          {"mean": 0.0, "amplitudes": [0.05],
                           "frequencies_per_length": [0.618]},
                          seed=base_seed * 2 + 2)

    phases = _section(data, "phases", ("bound",))
    phase_bound = _number("phases.bound", phases.get("bound", 0.3), lo=0.0)

    geo = _section(data, "geometry",
                   ("epsilon", "theta", "h_length", "x1_extent", "x2_extent"))
    epsilon = _number("geometry.epsilon", geo.get("epsilon", 1.0 / 16.0),
                      lo=0.0, hi=1.0, open_lo=True, open_hi=True)
    theta = geo.get("theta", 0.5)
    theta = _number("geometry.theta", theta)
    if not 0.0 < theta < 2.0 / 3.0:
        raise ConfigError(
            f"geometry.theta: must lie in the open interval (0, 2/3) so the "
            f"fissure wall slopes vanish with the lattice scale; got {theta}")
    h_length = _number("geometry.h_length", geo.get("h_length", 1.0),
                       lo=0.0, open_lo=True)
    x1_extent = _numbers("geometry.x1_extent",
                         geo.get("x1_extent", [0.0, 1.0]), length=2)
    x2_extent = _numbers("geometry.x2_extent",
                         geo.get("x2_extent", [0.0, 1.0]), length=2)
    for name, ext in (("x1_extent", x1_extent), ("x2_extent", x2_extent)):
        if ext[1] <= ext[0]:
            raise ConfigError(f"geometry.{name}: must be an increasing "
                              f"interval, got {list(ext)}")

    cell = _section(data, "cell",
                    ("resolution", "volume_resolution", "surface_resolution"))
    cell_resolution = _integer("cell.resolution",
                               cell.get("resolution", 256), lo=16)
    # retired keys: no solver reads them, but the benchmark's tiny config
    # still writes both (perfbench/test_perfbench.py:29), so they are
    # range-checked and dropped
    _integer("cell.volume_resolution", cell.get("volume_resolution", 12),
             lo=4)
    _integer("cell.surface_resolution", cell.get("surface_resolution", 48),
             lo=8)

    flow_sec = _section(data, "flow",
                        ("k_plus", "k_minus", "mu_plus_viscosity",
                         "mu_minus_viscosity", "mu_fissure_viscosity",
                         "depth_plus_length", "depth_minus_length", "shape",
                         "gravity_plus", "gravity_minus", "bc_kind", "p_top",
                         "p_bottom"))
    flow = {
        "k_plus": list(_positives("flow.k_plus",
                                  flow_sec.get("k_plus", [1.3, 1.3, 0.9]),
                                  length=3)),
        "k_minus": list(_positives("flow.k_minus",
                                   flow_sec.get("k_minus", [0.8, 0.8, 1.1]),
                                   length=3)),
        "mu_plus_viscosity": _number(
            "flow.mu_plus_viscosity", flow_sec.get("mu_plus_viscosity", 1.0),
            lo=0.0, open_lo=True),
        "mu_minus_viscosity": _number(
            "flow.mu_minus_viscosity",
            flow_sec.get("mu_minus_viscosity", 1.0), lo=0.0, open_lo=True),
        "mu_fissure_viscosity": _number(
            "flow.mu_fissure_viscosity",
            flow_sec.get("mu_fissure_viscosity", 0.02), lo=0.0, open_lo=True),
        "depth_plus_length": _number(
            "flow.depth_plus_length", flow_sec.get("depth_plus_length", 1.0),
            lo=0.0, open_lo=True),
        "depth_minus_length": _number(
            "flow.depth_minus_length",
            flow_sec.get("depth_minus_length", 1.0), lo=0.0, open_lo=True),
        # as FlowConfig: at least 3 vertical cells per bed
        "shape": _shape("flow.shape", flow_sec.get("shape", [8, 8, 8, 8]),
                        3),
        "gravity_plus": _number("flow.gravity_plus",
                                flow_sec.get("gravity_plus", 0.0)),
        "gravity_minus": _number("flow.gravity_minus",
                                 flow_sec.get("gravity_minus", 0.0)),
        "bc_kind": _choice("flow.bc_kind",
                           flow_sec.get("bc_kind", "pressure_ends"),
                           ("pressure_ends", "closed")),
        "p_top": _number("flow.p_top", flow_sec.get("p_top", 1.0)),
        "p_bottom": _number("flow.p_bottom", flow_sec.get("p_bottom", 0.0)),
    }

    tr_sec = _section(data, "transport",
                      ("diff_plus", "diff_minus", "tube_diffusion", "R_rate",
                       "drift_v3", "porosity", "bc_plus", "bc_minus", "shape",
                       "depth_plus_length", "depth_minus_length",
                       "surface_diffusion"))
    surface_diffusion = tr_sec.get("surface_diffusion")
    if surface_diffusion is not None:
        surface_diffusion = list(_positives("transport.surface_diffusion",
                                            surface_diffusion, length=2))
    transport = {
        "diff_plus": list(_positives("transport.diff_plus",
                                     tr_sec.get("diff_plus", [1.0, 1.0, 1.0]),
                                     length=3)),
        "diff_minus": list(_positives(
            "transport.diff_minus",
            tr_sec.get("diff_minus", [0.8, 0.8, 1.2]), length=3)),
        "tube_diffusion": _number("transport.tube_diffusion",
                                  tr_sec.get("tube_diffusion", 0.9),
                                  lo=0.0, open_lo=True),
        "R_rate": _number("transport.R_rate", tr_sec.get("R_rate", 1.1),
                          lo=0.0),
        "drift_v3": _number("transport.drift_v3",
                            tr_sec.get("drift_v3", 0.4)),
        "porosity": _number("transport.porosity",
                            tr_sec.get("porosity", 0.9),
                            lo=0.0, hi=1.0, open_lo=True),
        "bc_plus": _number("transport.bc_plus", tr_sec.get("bc_plus", 1.0)),
        "bc_minus": _number("transport.bc_minus",
                            tr_sec.get("bc_minus", 0.0)),
        "shape": _shape("transport.shape",
                        tr_sec.get("shape", [8, 8, 8, 8]), 2),
        "depth_plus_length": _number(
            "transport.depth_plus_length",
            tr_sec.get("depth_plus_length", 1.0), lo=0.0, open_lo=True),
        "depth_minus_length": _number(
            "transport.depth_minus_length",
            tr_sec.get("depth_minus_length", 1.0), lo=0.0, open_lo=True),
        "surface_diffusion": surface_diffusion,
    }

    er_sec = _section(data, "ergodic", ("horizons", "window_len"))
    horizons = _numbers("ergodic.horizons",
                        er_sec.get("horizons", [100.0, 1000.0, 10000.0]))
    if any(t <= 0 for t in horizons) or len(horizons) < 2:
        raise ConfigError("ergodic.horizons: need at least two positive "
                          "averaging horizons")
    # windows much longer than the oscillation periods leave too few of
    # them at the shortest horizon and the decay-rate gate gets noisy
    ergodic = {"horizons": list(horizons),
               "window_len": _number("ergodic.window_len",
                                     er_sec.get("window_len", 10.0),
                                     lo=0.0, open_lo=True)}

    sw_sec = _section(data, "sweep", ("targets", "realizations", "epsilons"))
    targets = sw_sec.get("targets", list(_SWEEP_TARGETS))
    if not isinstance(targets, list) or not targets:
        raise ConfigError("sweep.targets: expected a nonempty list")
    for t in targets:
        _choice("sweep.targets", t, _SWEEP_TARGETS)
    epsilons = sw_sec.get("epsilons")
    if epsilons is not None:
        epsilons = list(_numbers("sweep.epsilons", epsilons))
        if any(e <= 0 or e >= 1 for e in epsilons):
            raise ConfigError("sweep.epsilons: entries must lie in (0, 1)")
        if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
            raise ConfigError("sweep.epsilons: must be strictly decreasing")
    # medians over few realizations are noisy enough to break the strict
    # monotonicity gate on valid runs; 20 matches the verification protocol
    sweep = {"targets": list(targets),
             "realizations": _integer("sweep.realizations",
                                      sw_sec.get("realizations", 20), lo=1),
             "epsilons": epsilons}

    return ExperimentConfig(
        base_seed=base_seed, output_dir=output_dir, aperture=aperture,
        centerline=centerline, phase_bound=phase_bound, epsilon=epsilon,
        theta=theta, h_length=h_length, x1_extent=tuple(x1_extent),
        x2_extent=tuple(x2_extent), cell_resolution=cell_resolution,
        flow=flow, transport=transport, ergodic=ergodic, sweep=sweep)


def default_config() -> ExperimentConfig:
    return parse_config(text="")
