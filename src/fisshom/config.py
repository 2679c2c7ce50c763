"""Experiment configuration: schema-validated YAML with explicit defaults.

One structured file drives every pipeline stage.  Dimensional keys carry a
unit-role suffix (h_length, R_rate, depth_plus_length) so bracket constants
and physical coefficients cannot be silently swapped.  Every key is
optional; an empty file runs the documented default experiment.  Violations
raise ConfigError with the full key path and, for syntax errors, the line.

`transport.porosity` is validated but changes no output: it scales only a
bed source of the transport solver, and no stage passes one.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import partial

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


def _numbers(path: str, value, length=None) -> list[float]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path}: expected a list of numbers, got {value!r}")
    if length is not None and len(value) != length:
        raise ConfigError(f"{path}: expected {length} entries, "
                          f"got {len(value)}")
    return [_number(f"{path}[{k}]", v) for k, v in enumerate(value)]


def _positives(path: str, value, length: int) -> list[float]:
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


def _text(path: str, value) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path}: expected a nonempty string")
    return value


def _choices(path: str, value, options) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list")
    return [_choice(path, v, options) for v in value]


def _optional(check):
    """`check` for a key that may be null: None passes through as None."""
    return lambda path, value: None if value is None else check(path, value)


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


_positive = partial(_number, lo=0.0, open_lo=True)
_diagonal = partial(_positives, length=3)
_bound = _optional(_number)

_SWEEP_TARGETS = ("measure", "energy", "profile", "exchange")

# Every key, once: section -> key -> (default, check), where check(path,
# value) validates the given value or the default and returns it parsed; a
# nested mapping is a subsection.  Other rules follow in parse_config.
_SCHEMA = {
    "run": {"base_seed": (7, partial(_integer, lo=0)),
            "output_dir": ("out", _text)},
    "process": {
        "aperture": {"mean": (0.5, _number),
                     "amplitudes": ([0.08, 0.05], _numbers),
                     "frequencies_per_length": ([1.0, math.sqrt(2.0)],
                                                _numbers),
                     "lower_bound": (0.3, _bound),
                     "upper_bound": (0.7, _bound),
                     "deriv_bound": (0.25, _bound)},
        # build_path reads no range bounds for the centerline (|r| <= 1)
        "centerline": {"mean": (0.0, _number),
                       "amplitudes": ([0.05], _numbers),
                       "frequencies_per_length": ([0.618], _numbers),
                       "deriv_bound": (None, _bound)},
    },
    "phases": {"bound": (0.3, partial(_number, lo=0.0))},
    "geometry": {
        "epsilon": (1.0 / 16.0, partial(_number, lo=0.0, hi=1.0,
                                        open_lo=True, open_hi=True)),
        "theta": (0.5, _number),
        "h_length": (1.0, _positive),
        "x1_extent": ([0.0, 1.0], partial(_numbers, length=2)),
        "x2_extent": ([0.0, 1.0], partial(_numbers, length=2)),
    },
    "cell": {
        "resolution": (256, partial(_integer, lo=16)),
        # retired keys: no solver reads them, but the benchmark's tiny
        # config still writes both (perfbench/test_perfbench.py:29), so
        # they are range-checked and dropped
        "volume_resolution": (12, partial(_integer, lo=4)),
        "surface_resolution": (48, partial(_integer, lo=8)),
    },
    "flow": {
        "k_plus": ([1.3, 1.3, 0.9], _diagonal),
        "k_minus": ([0.8, 0.8, 1.1], _diagonal),
        "mu_plus_viscosity": (1.0, _positive),
        "mu_minus_viscosity": (1.0, _positive),
        "mu_fissure_viscosity": (0.02, _positive),
        "depth_plus_length": (1.0, _positive),
        "depth_minus_length": (1.0, _positive),
        # as FlowConfig: at least 3 vertical cells per bed
        "shape": ([8, 8, 8, 8], partial(_shape, vertical_lo=3)),
        "gravity_plus": (0.0, _number),
        "gravity_minus": (0.0, _number),
        "bc_kind": ("pressure_ends",
                    partial(_choice, options=("pressure_ends", "closed"))),
        "p_top": (1.0, _number),
        "p_bottom": (0.0, _number),
    },
    "transport": {
        "diff_plus": ([1.0, 1.0, 1.0], _diagonal),
        "diff_minus": ([0.8, 0.8, 1.2], _diagonal),
        "tube_diffusion": (0.9, _positive),
        "R_rate": (1.1, partial(_number, lo=0.0)),
        "drift_v3": (0.4, _number),
        "porosity": (0.9, partial(_number, lo=0.0, hi=1.0, open_lo=True)),
        "bc_plus": (1.0, _number),
        "bc_minus": (0.0, _number),
        "shape": ([8, 8, 8, 8], partial(_shape, vertical_lo=2)),
        "depth_plus_length": (1.0, _positive),
        "depth_minus_length": (1.0, _positive),
        "surface_diffusion": (None,
                              _optional(partial(_positives, length=2))),
    },
    "ergodic": {
        "horizons": ([100.0, 1000.0, 10000.0], _numbers),
        # windows much longer than the oscillation periods leave too few of
        # them at the shortest horizon and the decay-rate gate gets noisy
        "window_len": (10.0, _positive),
    },
    "sweep": {
        "targets": (list(_SWEEP_TARGETS),
                    partial(_choices, options=_SWEEP_TARGETS)),
        # medians over few realizations are noisy enough to break the
        # strict monotonicity gate on valid runs; 20 matches the
        # verification protocol
        "realizations": (20, partial(_integer, lo=1)),
        "epsilons": (None, _optional(_numbers)),
    },
}


def _section(data: dict, name: str, table: dict) -> dict:
    """The mapping at the dotted key path `name`, its last part a key of
    `data`, with each key of `table` checked or defaulted; raises
    ConfigError naming the path of an unknown key."""
    sec = data.get(name.rsplit(".", 1)[-1], {})
    if sec is None:
        sec = {}
    if not isinstance(sec, dict):
        raise ConfigError(f"{name}: expected a mapping, got {sec!r}")
    for key in sec:
        if key not in table:
            raise ConfigError(f"{name}.{key}: unknown key (known keys: "
                              f"{', '.join(table)})")
    out = {}
    for key, entry in table.items():
        if isinstance(entry, dict):
            out[key] = _section(sec, f"{name}.{key}", entry)
        else:
            default, check = entry
            out[key] = check(f"{name}.{key}", sec.get(key, default))
    return out


def _process(values: dict, path: str, kind: str, seed: int) -> ProcessParams:
    amps = tuple(values.pop("amplitudes"))
    freqs = tuple(values.pop("frequencies_per_length"))
    if len(amps) != len(freqs):
        raise ConfigError(f"{path}: amplitudes and frequencies_per_length "
                          f"must have equal length")
    try:
        return ProcessParams(kind=kind, amplitudes=amps, frequencies=freqs,
                             seed=seed, **values)
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
        sec = data.get(section)
        if not isinstance(sec, (dict, type(None))):
            raise ConfigError(f"{section}: expected a mapping, got {sec!r}")
        data[section] = dict(sec or {}, **values)
    for key in data:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown section '{key}' (known sections: "
                              f"{', '.join(_SCHEMA)})")
    sec = {name: _section(data, name, table)
           for name, table in _SCHEMA.items()}
    run, geo = sec["run"], sec["geometry"]
    if not 0.0 < geo["theta"] < 2.0 / 3.0:
        raise ConfigError(
            f"geometry.theta: must lie in the open interval (0, 2/3) so the "
            f"fissure wall slopes vanish with the lattice scale; got "
            f"{geo['theta']}")
    for name in ("x1_extent", "x2_extent"):
        ext = geo[name]
        if ext[1] <= ext[0]:
            raise ConfigError(f"geometry.{name}: must be an increasing "
                              f"interval, got {ext}")
    horizons = sec["ergodic"]["horizons"]
    if any(t <= 0 for t in horizons) or len(horizons) < 2:
        raise ConfigError("ergodic.horizons: need at least two positive "
                          "averaging horizons")
    epsilons = sec["sweep"]["epsilons"]
    if epsilons is not None:
        if any(e <= 0 or e >= 1 for e in epsilons):
            raise ConfigError("sweep.epsilons: entries must lie in (0, 1)")
        if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
            raise ConfigError("sweep.epsilons: must be strictly decreasing")
    seed = run["base_seed"]
    return ExperimentConfig(
        base_seed=seed, output_dir=run["output_dir"],
        aperture=_process(sec["process"]["aperture"], "process.aperture",
                          "aperture_q", seed * 2 + 1),
        centerline=_process(sec["process"]["centerline"], "process.centerline",
                            "centerline_r", seed * 2 + 2),
        phase_bound=sec["phases"]["bound"], epsilon=geo["epsilon"],
        theta=geo["theta"], h_length=geo["h_length"],
        x1_extent=tuple(geo["x1_extent"]), x2_extent=tuple(geo["x2_extent"]),
        cell_resolution=sec["cell"]["resolution"], flow=sec["flow"],
        transport=sec["transport"], ergodic=sec["ergodic"],
        sweep=sec["sweep"])


def default_config() -> ExperimentConfig:
    return parse_config(text="")
