"""Run configuration: INI files naming a scene preset or inline geometry.

A run config collects a scene (one of the shipped presets A, B and C,
written below as SceneDef values, or inline geometry, never both; the
[texture] section may override either's texture), the capture plane, grid
sizes and run housekeeping. The table _SECTIONS declares each section's
keys with their parser, default and range. Unknown sections and keys,
missing keys, unparseable numbers and run settings out of range raise
ConfigError naming them: n_s and n_u >= 2, seed >= 0, keep_fraction in
(0, 1], window rect or hann, and threads, subsample_factor and the [sweep]
and [layers] counts and factors >= 1. Domain violations (negative focal
length, camera range touching the plane crossing) surface as the
constructing type's own error so the CLI can report them as failed
preconditions rather than malformed input. The plane depth may also be inf
or "infinity", the directional limit; every other number must be finite.
"""

from __future__ import annotations

import configparser
import math
from collections.abc import Callable
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, NamedTuple

from .mapping import PlaneParam
from .scene import SceneDef, SurfaceSpec, TextureSpec

__all__ = [
    "ConfigError",
    "SweepSpec",
    "LayersSpec",
    "RunConfig",
    "load_config",
    "load_preset",
]

# The shipped scenes, each with the default texture: A a tilted plane, B the
# same sheet mildly curved, C a steep, strongly curved sheet.
_PRESETS = {
    "A": SceneDef(SurfaceSpec(1.5, 17.0, 0.0, (-0.8, 0.8)), TextureSpec(), "A"),
    "B": SceneDef(SurfaceSpec(1.5, 17.0, -0.4, (-0.8, 0.8)), TextureSpec(), "B"),
    "C": SceneDef(SurfaceSpec(1.5, 50.0, -1.0, (-0.5, 0.5)), TextureSpec(), "C"),
}


class ConfigError(ValueError):
    """The configuration file is missing, malformed, or untypable."""


@dataclass(frozen=True)
class SweepSpec:
    depth_min: float
    depth_max: float
    depth_count: int
    tilt_min: float
    tilt_max: float
    tilt_count: int
    factor: int = 1


@dataclass(frozen=True)
class LayersSpec:
    layer_counts: tuple[int, ...]
    factors: tuple[int, ...]


@dataclass
class RunConfig:
    scene: SceneDef
    plane: PlaneParam
    n_s: int
    n_u: int
    seed: int
    out_dir: str
    threads: int
    window: str | None
    keep_fraction: float
    subsample_factor: int
    sweep: SweepSpec | None = None
    layers: LayersSpec | None = None

    def canonical(self) -> str:
        """Deterministic one-line-per-field rendering of the semantic fields.

        Every field of the plane, the surface and the texture enters, and
        every [grid] and [run] key outside _UNHASHED.
        """
        records = {"plane": self.plane, "scene": self.scene.surface, "texture": self.scene.texture}
        lines = {
            f"{section}.{f.name}": repr(getattr(record, f.name))
            for section, record in records.items()
            for f in fields(record)
        }
        lines["texture.omegas"] = " ".join(map(repr, self.scene.texture.omegas))
        lines["scene.name"] = self.scene.name
        for section in ("grid", "run"):
            for key in _SECTIONS[section].keys() - _UNHASHED:
                lines[f"{section}.{key}"] = str(getattr(self, key))
        lines["run.window"] = self.window or "auto"
        if self.sweep is not None:
            lines["sweep.depths"] = (
                f"{self.sweep.depth_min!r} {self.sweep.depth_max!r} {self.sweep.depth_count}"
            )
            lines["sweep.tilts"] = (
                f"{self.sweep.tilt_min!r} {self.sweep.tilt_max!r} {self.sweep.tilt_count}"
            )
            lines["sweep.factor"] = str(self.sweep.factor)
        if self.layers is not None:
            lines["layers.layer_counts"] = " ".join(map(str, self.layers.layer_counts))
            lines["layers.factors"] = " ".join(map(str, self.layers.factors))
        return "\n".join(f"{k} = {v}" for k, v in sorted(lines.items()))

    def config_hash(self) -> str:
        # CPython's own SHA-256: hashlib loads OpenSSL (3.5 MB resident) for 500 bytes
        try:
            from _sha2 import sha256  # Python 3.12+
        except ImportError:
            try:
                from _sha256 import sha256
            except ImportError:
                from hashlib import sha256
        return sha256(self.canonical().encode()).hexdigest()


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _depth(raw: str) -> float:  # finite, or inf for the directional limit
    return math.inf if float(raw) == math.inf else _finite(raw)


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(_finite(tok) for tok in raw.split())


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.split())


_REQUIRED = object()  # the key must be set
_UNSET = object()  # an unset key stays out of the dict; the preset or the type fills it


class _Key(NamedTuple):
    parse: Callable[[str], Any]
    default: Any = _REQUIRED
    allowed: tuple[Callable[[Any], bool], str] | None = None  # range test and its wording


def _at_least(low: int):
    return (lambda v: v >= low, f"must be >= {low}")


_POSITIVE_INTS = (lambda v: len(v) > 0 and min(v) >= 1, "must list integers >= 1")

# Every section a run config may hold, with every key it takes. A [scene]
# that names a shipped scene holds `preset` alone; any other [scene] holds
# the inline geometry below.
_SECTIONS: dict[str, dict[str, _Key]] = {
    "scene": {
        "name": _Key(str, "custom"),
        "z0": _Key(_finite),
        "tilt_deg": _Key(_finite),
        "quad": _Key(_finite),
        "x_min": _Key(_finite),
        "x_max": _Key(_finite),
    },
    "texture": {
        "omegas": _Key(_floats, _UNSET),
        "angular_bandwidth": _Key(_finite, _UNSET),
        "noise_sigma": _Key(_finite, _UNSET),
    },
    "plane": {
        "focal": _Key(_finite, _UNSET),
        "depth": _Key(_depth),
        "tilt_deg": _Key(_finite, _UNSET),
        "s_max": _Key(_finite, _UNSET),
        "u_max": _Key(_finite, _UNSET),
    },
    "grid": {
        "n_s": _Key(int, 512, _at_least(2)),
        "n_u": _Key(int, 512, _at_least(2)),
    },
    "run": {
        "seed": _Key(int, 0, _at_least(0)),
        "out_dir": _Key(str, "out"),
        "threads": _Key(int, 1, _at_least(1)),
        "window": _Key(str, None, (lambda v: v in ("rect", "hann"), "must be rect or hann")),
        "keep_fraction": _Key(_finite, 0.01, (lambda v: 0.0 < v <= 1.0, "must be in (0, 1]")),
        "subsample_factor": _Key(int, 1, _at_least(1)),
    },
    "sweep": {
        "depth_min": _Key(_finite),
        "depth_max": _Key(_finite),
        "depth_count": _Key(int, allowed=_at_least(1)),
        "tilt_min": _Key(_finite),
        "tilt_max": _Key(_finite),
        "tilt_count": _Key(int, allowed=_at_least(1)),
        "factor": _Key(int, 1, _at_least(1)),
    },
    "layers": {
        "layer_counts": _Key(_ints, allowed=_POSITIVE_INTS),
        "factors": _Key(_ints, allowed=_POSITIVE_INTS),
    },
}


# the CLI flag behind each override of a [run] key
_FLAGS = {"seed": "--seed", "out_dir": "--out", "threads": "--threads"}
# [run] keys outside the config hash: manifests record the seed apart, and
# out_dir and threads do not change results
_UNHASHED = {"seed", "out_dir", "threads"}


def _read(parser, name: str, origin: str, overrides: dict | None = None) -> dict:
    """The typed values of section [name], with the table's defaults filled in.

    Raises ConfigError naming the key for an unknown or missing key and for
    a bad or out-of-range value. Overrides that are not None replace the
    file's values and pass the same checks; their errors name the flag.
    """
    keys = _SECTIONS[name]
    if name not in parser and any(key.default is _REQUIRED for key in keys.values()):
        raise ConfigError(f"{origin}: missing [{name}] section")
    section = parser[name] if name in parser else {}
    given = {k: (raw, f"{origin}: [{name}] {k}") for k, raw in section.items()}
    given.update((k, (str(v), _FLAGS[k])) for k, v in (overrides or {}).items() if v is not None)
    values = {k: s.default for k, s in keys.items() if s.default not in (_REQUIRED, _UNSET)}
    for key, (raw, where) in given.items():
        if key not in keys:
            raise ConfigError(f"{origin}: unknown key {key!r} in [{name}]")
        spec = keys[key]
        try:
            values[key] = spec.parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value {raw!r}") from exc
        if spec.allowed is not None and not spec.allowed[0](values[key]):
            raise ConfigError(f"{where} {spec.allowed[1]}, got {values[key]!r}")
    for key, spec in keys.items():
        if spec.default is _REQUIRED and key not in given:
            raise ConfigError(f"{origin}: missing key {key!r} in [{name}]")
    return values


def load_preset(name: str) -> SceneDef:
    """One of the shipped scenes (A, B, C); case and surrounding spaces are ignored."""
    key = name.strip().upper()
    if key not in _PRESETS:
        raise ConfigError(f"unknown scene preset {name!r} (have {', '.join(_PRESETS)})")
    return _PRESETS[key]


def _build_scene(parser, origin: str) -> SceneDef:
    section = parser["scene"] if "scene" in parser else {}
    if "preset" in section:
        extra = [key for key in section if key != "preset"]
        if extra:
            raise ConfigError(
                f"{origin}: [scene] sets both preset and {extra[0]}; "
                "a scene is a preset or inline geometry"
            )
        scene = load_preset(section["preset"])
    else:
        fields = _read(parser, "scene", origin)
        name = fields.pop("name")
        x_range = (fields.pop("x_min"), fields.pop("x_max"))
        scene = SceneDef(SurfaceSpec(x_range=x_range, **fields), TextureSpec(), name)
    return replace(scene, texture=replace(scene.texture, **_read(parser, "texture", origin)))


def load_config(
    path,
    *,
    seed: int | None = None,
    out_dir: str | None = None,
    threads: int | None = None,
) -> RunConfig:
    """Parse an INI run config file, applying any CLI overrides.

    Raises ConfigError for structural problems; lets domain validation
    errors from the constructed types propagate.
    """
    path = Path(path)
    origin = str(path)
    if not path.is_file():
        raise ConfigError(f"{origin}: no such config file")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        parser.read_string(path.read_text(), source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: {exc}") from exc
    return _run_config(parser, origin, seed=seed, out_dir=out_dir, threads=threads)


def _run_config(parser, origin: str, *, seed, out_dir, threads) -> RunConfig:
    """The RunConfig a parsed INI describes; None overrides keep the file's value.

    Every check on the run settings is made here, through _SECTIONS;
    RunConfig is built nowhere else.
    """
    if parser.defaults():  # [DEFAULT] would hand its keys to every section
        raise ConfigError(f"{origin}: unknown section [{parser.default_section}]")
    for name in parser.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"{origin}: unknown section [{name}]")
    scene = _build_scene(parser, origin)
    plane = PlaneParam(**_read(parser, "plane", origin))
    grid = _read(parser, "grid", origin)
    run = _read(parser, "run", origin, dict(seed=seed, out_dir=out_dir, threads=threads))
    sweep = SweepSpec(**_read(parser, "sweep", origin)) if "sweep" in parser else None
    layers = LayersSpec(**_read(parser, "layers", origin)) if "layers" in parser else None
    return RunConfig(scene, plane, **grid, **run, sweep=sweep, layers=layers)
