"""Run configuration: INI files with scene presets.

A run config collects a scene (one of the shipped presets, whose texture
the [texture] section may override, or inline geometry, never both), the
capture plane, grid sizes and run housekeeping. Parsing errors (missing
keys, unparseable numbers) raise ConfigError; domain violations (negative
focal length, camera range touching the plane crossing) surface as the
constructing type's own error so the CLI can report them as failed
preconditions rather than malformed input. The plane depth accepts the
token "infinity" for the directional limit; every other number must be
finite.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .mapping import DEFAULT_U_MAX, PlaneParam
from .scene import SceneDef, SurfaceSpec, TextureSpec

__all__ = [
    "ConfigError",
    "SweepSpec",
    "LayersSpec",
    "RunConfig",
    "load_config",
    "load_preset",
    "PRESET_NAMES",
]

PRESET_NAMES = ("A", "B", "C")


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

        The seed is recorded separately in manifests and out_dir/threads do
        not change results, so none of them enter the hash.
        """
        surf = self.scene.surface
        tex = self.scene.texture
        fields = {
            "grid.n_s": str(self.n_s),
            "grid.n_u": str(self.n_u),
            "plane.depth": repr(self.plane.depth),
            "plane.focal": repr(self.plane.focal),
            "plane.s_max": repr(self.plane.s_max),
            "plane.tilt_deg": repr(self.plane.tilt_deg),
            "plane.u_max": repr(self.plane.u_max),
            "run.keep_fraction": repr(self.keep_fraction),
            "run.subsample_factor": str(self.subsample_factor),
            "run.window": self.window or "auto",
            "scene.name": self.scene.name,
            "scene.quad": repr(surf.quad),
            "scene.tilt_deg": repr(surf.tilt_deg),
            "scene.x_range": repr(surf.x_range),
            "scene.z0": repr(surf.z0),
            "texture.angular_bandwidth": repr(tex.angular_bandwidth),
            "texture.noise_sigma": repr(tex.noise_sigma),
            "texture.omegas": " ".join(repr(w) for w in tex.omegas),
        }
        if self.sweep is not None:
            fields["sweep.depths"] = (
                f"{self.sweep.depth_min!r} {self.sweep.depth_max!r} {self.sweep.depth_count}"
            )
            fields["sweep.tilts"] = (
                f"{self.sweep.tilt_min!r} {self.sweep.tilt_max!r} {self.sweep.tilt_count}"
            )
            fields["sweep.factor"] = str(self.sweep.factor)
        if self.layers is not None:
            fields["layers.layer_counts"] = " ".join(map(str, self.layers.layer_counts))
            fields["layers.factors"] = " ".join(map(str, self.layers.factors))
        return "\n".join(f"{k} = {v}" for k, v in sorted(fields.items()))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()


def _preset_text(name: str) -> str:
    fname = f"scene_{name.lower()}.cfg"
    return resources.files("epifield").joinpath("presets", fname).read_text()


def _parse_ini(text: str, origin: str):
    import configparser

    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: {exc}") from exc
    return parser


def _get(section, key, convert, origin):
    if key not in section:
        raise ConfigError(f"{origin}: missing key '{key}' in [{section.name}]")
    raw = section[key]
    try:
        return convert(raw)
    except ValueError as exc:
        raise ConfigError(f"{origin}: bad value for {key}: {raw!r}") from exc


def _opt(section, key, convert, default, origin):
    if section is None or key not in section:
        return default
    return _get(section, key, convert, origin)


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(_finite(tok) for tok in raw.split())


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.split())


def _surface_fields(section, origin) -> dict:
    return {
        "z0": _get(section, "z0", _finite, origin),
        "tilt_deg": _get(section, "tilt_deg", _finite, origin),
        "quad": _get(section, "quad", _finite, origin),
        "x_range": (
            _get(section, "x_min", _finite, origin),
            _get(section, "x_max", _finite, origin),
        ),
    }


_TEXTURE_KEYS = {"omegas": _floats, "angular_bandwidth": _finite, "noise_sigma": _finite}


def _texture_fields(section, origin) -> dict:
    """The texture keys the section sets; TextureSpec or the preset fills the rest."""
    if section is None:
        return {}
    return {
        key: _get(section, key, convert, origin)
        for key, convert in _TEXTURE_KEYS.items()
        if key in section
    }


def load_preset(name: str) -> SceneDef:
    """One of the shipped scenes (A, B, C) as a ready SceneDef."""
    key = name.strip().upper()
    if key not in PRESET_NAMES:
        raise ConfigError(f"unknown scene preset {name!r} (have {', '.join(PRESET_NAMES)})")
    origin = f"preset {key}"
    parser = _parse_ini(_preset_text(key), origin)
    surface = SurfaceSpec(**_surface_fields(parser["scene"], origin))
    texture = TextureSpec(
        **_texture_fields(parser["texture"] if "texture" in parser else None, origin)
    )
    return SceneDef(surface, texture, name=key)


def _build_scene(parser, origin: str) -> SceneDef:
    if "scene" not in parser:
        raise ConfigError(f"{origin}: missing [scene] section")
    section = parser["scene"]
    tex_section = parser["texture"] if "texture" in parser else None
    if "preset" in section:
        for key in section:
            if key != "preset":
                raise ConfigError(
                    f"{origin}: [scene] sets both preset and {key}; "
                    "a scene is a preset or inline geometry"
                )
        preset = load_preset(section["preset"])
        texture = replace(preset.texture, **_texture_fields(tex_section, origin))
        return SceneDef(preset.surface, texture, name=preset.name)
    surface = SurfaceSpec(**_surface_fields(section, origin))
    texture = TextureSpec(**_texture_fields(tex_section, origin))
    return SceneDef(surface, texture, name=section.get("name", "custom"))


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
    parser = _parse_ini(path.read_text(), origin)
    return _run_config(parser, origin, seed=seed, out_dir=out_dir, threads=threads)


def _run_config(parser, origin: str, *, seed, out_dir, threads) -> RunConfig:
    """The RunConfig a parsed INI describes; None overrides keep the file's value.

    Every check on the run settings is made here; RunConfig is built nowhere else.
    """
    scene = _build_scene(parser, origin)

    if "plane" not in parser:
        raise ConfigError(f"{origin}: missing [plane] section")
    plane_sec = parser["plane"]
    plane_raw = {
        "focal": _opt(plane_sec, "focal", _finite, 1.0, origin),
        "depth": _get(plane_sec, "depth", float, origin),
        "tilt_deg": _opt(plane_sec, "tilt_deg", _finite, 0.0, origin),
        "s_max": _opt(plane_sec, "s_max", _finite, 1.0, origin),
        "u_max": _opt(plane_sec, "u_max", _finite, DEFAULT_U_MAX, origin),
    }
    plane = PlaneParam(**plane_raw)

    grid = parser["grid"] if "grid" in parser else None
    run = parser["run"] if "run" in parser else None
    cfg = RunConfig(
        scene=scene,
        plane=plane,
        n_s=_opt(grid, "n_s", int, 512, origin),
        n_u=_opt(grid, "n_u", int, 512, origin),
        seed=seed if seed is not None else _opt(run, "seed", int, 0, origin),
        out_dir=out_dir if out_dir is not None else _opt(run, "out_dir", str, "out", origin),
        threads=threads if threads is not None else _opt(run, "threads", int, 1, origin),
        window=_opt(run, "window", str, None, origin),
        keep_fraction=_opt(run, "keep_fraction", _finite, 0.01, origin),
        subsample_factor=_opt(run, "subsample_factor", int, 1, origin),
    )
    if cfg.threads < 1:
        raise ConfigError(f"threads must be >= 1, got {cfg.threads}")
    if cfg.subsample_factor < 1:
        raise ConfigError(f"subsample_factor must be >= 1, got {cfg.subsample_factor}")
    if cfg.window not in (None, "rect", "hann"):
        raise ConfigError(f"{origin}: window must be rect or hann, got {cfg.window!r}")
    if cfg.n_s < 2 or cfg.n_u < 2:
        raise ConfigError(f"{origin}: grid sizes must be >= 2")

    if "sweep" in parser:
        sw = parser["sweep"]
        cfg.sweep = SweepSpec(
            depth_min=_get(sw, "depth_min", _finite, origin),
            depth_max=_get(sw, "depth_max", _finite, origin),
            depth_count=_get(sw, "depth_count", int, origin),
            tilt_min=_get(sw, "tilt_min", _finite, origin),
            tilt_max=_get(sw, "tilt_max", _finite, origin),
            tilt_count=_get(sw, "tilt_count", int, origin),
            factor=_opt(sw, "factor", int, 1, origin),
        )
        if cfg.sweep.depth_count < 1 or cfg.sweep.tilt_count < 1:
            raise ConfigError(f"{origin}: sweep counts must be >= 1")
    if "layers" in parser:
        ly = parser["layers"]
        cfg.layers = LayersSpec(
            layer_counts=_get(ly, "layer_counts", _ints, origin),
            factors=_get(ly, "factors", _ints, origin),
        )
        if not cfg.layers.layer_counts or not cfg.layers.factors:
            raise ConfigError(f"{origin}: layer_counts and factors must be nonempty")
    return cfg

