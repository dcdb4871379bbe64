"""Command-line front end.

Subcommands: render, spectrum, guidelines, sweep-sparsity, reconstruct,
layers. Every run reads an INI config (see config.py; the guidelines
command takes a bare --scene preset instead), writes its artifacts into
the output directory next to a manifest.txt recording the config hash
and seed, and exits 0 on success, 1 for config problems, 2 for failed
preconditions, 3 for I/O failures.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, _run_config, load_config
from .experiments import (
    layers_experiment,
    sweep_plane_mae,
    sweep_reconstruction,
    sweep_sparsity,
)
from .fileio import (
    write_curve_csv,
    write_epi,
    write_heatmap_pgm,
    write_layers_rmse_csv,
    write_missing_csv,
    write_spectrum,
    write_sweep_csv,
)
from .mapping import SelfOcclusionError
from .render import render_epi
from .spectral import dft2_magnitude, plane_fan, sampling_guidelines

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_PRECONDITION = 2
_EXIT_IO = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epifield",
        description="Light-field EPI sampling analysis with a tiltable global image plane.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str):
        cmd = sub.add_parser(name, help=help_text)
        source = cmd.add_mutually_exclusive_group(required=True)
        source.add_argument("--config", help="INI run config")
        if name == "guidelines":
            source.add_argument("--scene", help="preset letter instead of --config")
        cmd.add_argument("--seed", type=int, default=None, help="override [run] seed")
        cmd.add_argument("--out", default=None, help="override [run] out_dir")
        cmd.add_argument("--threads", type=int, default=None, help="override [run] threads")
        return cmd

    add("render", "render an EPI to 16-bit PGM plus sidecar")
    add("spectrum", "render, transform, and export the EPI spectrum")
    add("guidelines", "print sampling guidance for a scene/plane")
    sweep = add("sweep-sparsity", "spectral sparsity over a (depth, tilt) grid")
    reconstruct = add("reconstruct", "reconstruction PSNR over a (depth, tilt) grid")
    for cmd in (sweep, reconstruct):
        cmd.add_argument("--heatmap", action="store_true", help="also write PGM heatmaps")
    add("layers", "layered capture: per-layer planes, error and image counts")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return _EXIT_OK if exc.code in (0, None) else _EXIT_CONFIG
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    # SceneGeometryError and NonDivisibleFactor are ValueErrors too
    except (SelfOcclusionError, ValueError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return _EXIT_PRECONDITION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return _EXIT_IO


def _load(args) -> RunConfig:
    overrides = dict(seed=args.seed, out_dir=args.out, threads=args.threads)
    if args.config is not None:
        return load_config(args.config, **overrides)
    # a dict, not INI text: the value cannot open sections of its own
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict({"scene": {"preset": args.scene}, "plane": {"depth": "inf"}})
    return _run_config(parser, "--scene", **overrides)


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, command: str, cfg: RunConfig, artifacts) -> None:
    lines = [
        f"command = {command}",
        f"config_hash = {cfg.config_hash()}",
        f"seed = {cfg.seed}",
        f"version = {__version__}",
    ]
    lines += [f"artifact = {Path(a).name}" for a in artifacts]
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")


def _dispatch(args) -> int:
    cfg = _load(args)
    handler = {
        "render": _cmd_render,
        "spectrum": _cmd_spectrum,
        "guidelines": _cmd_guidelines,
        "sweep-sparsity": _cmd_sweep,
        "reconstruct": _cmd_sweep,
        "layers": _cmd_layers,
    }[args.command]
    return handler(args, cfg)


def _cmd_render(args, cfg: RunConfig) -> int:
    epi = render_epi(cfg.scene, cfg.plane, cfg.n_s, cfg.n_u, seed=cfg.seed)
    out = _out_dir(cfg)
    paths = write_epi(epi, out / "epi")
    _write_manifest(out, "render", cfg, paths)
    print(f"wrote {paths[0]} ({cfg.n_s}x{cfg.n_u})")
    return _EXIT_OK


def _cmd_spectrum(args, cfg: RunConfig) -> int:
    window = cfg.window or "hann"
    epi = render_epi(cfg.scene, cfg.plane, cfg.n_s, cfg.n_u, seed=cfg.seed)
    spec = dft2_magnitude(epi, window=window)
    out = _out_dir(cfg)
    paths = list(write_spectrum(spec, out / "spectrum"))
    bounds_path = out / "bounds.txt"
    surface = cfg.scene.surface
    bounds = plane_fan(cfg.plane, surface, margin=cfg.scene.texture.angular_bandwidth)
    z_min, z_max = surface.depth_extremes()
    bounds_lines = [f"window = {window}"]
    bounds_lines += [f"{f.name} = {getattr(bounds, f.name)!r}" for f in fields(bounds)]
    bounds_lines += [f"z_min = {z_min!r}", f"z_max = {z_max!r}"]
    bounds_path.write_text("\n".join(bounds_lines) + "\n")
    paths.append(bounds_path)
    _write_manifest(out, "spectrum", cfg, paths)
    print(f"wrote {paths[0]} (window={window})")
    return _EXIT_OK


def _cmd_guidelines(args, cfg: RunConfig) -> int:
    pairs = sampling_guidelines(cfg.scene, cfg.plane, cfg.n_u)
    lines = [f"{k} = {v:.6g}" if isinstance(v, float) else f"{k} = {v}" for k, v in pairs]
    print("\n".join(lines))
    if args.out is not None:
        out = _out_dir(cfg)
        path = out / "guidelines.txt"
        path.write_text("\n".join(lines) + "\n")
        _write_manifest(out, "guidelines", cfg, [path])
    return _EXIT_OK


def _cmd_sweep(args, cfg: RunConfig) -> int:
    if cfg.sweep is None:
        raise ConfigError("this command needs a [sweep] section")
    sw = cfg.sweep
    d_values = np.linspace(sw.depth_min, sw.depth_max, sw.depth_count)
    t_values = np.linspace(sw.tilt_min, sw.tilt_max, sw.tilt_count)
    common = dict(
        plane=cfg.plane,
        n_s=cfg.n_s,
        n_u=cfg.n_u,
        seed=cfg.seed,
        threads=cfg.threads,
    )
    if args.command == "reconstruct":
        result = sweep_reconstruction(cfg.scene, d_values, t_values, factor=sw.factor, **common)
        tables = [("psnr", result, f"psnr argmax (factor {sw.factor})")]
    else:
        result = sweep_sparsity(
            cfg.scene,
            d_values,
            t_values,
            subsample_factor=cfg.subsample_factor,
            keep_fraction=cfg.keep_fraction,
            window=cfg.window or "rect",
            **common,
        )
        geometry = sweep_plane_mae(cfg.scene.surface, d_values, t_values, plane=cfg.plane)
        tables = [
            ("sparsity", result, "sparsity argmin"),
            ("plane_mae", geometry, "plane_mae argmin"),
        ]
    best = {label: table.opt_cell_values() for _, table, label in tables}  # before any write
    out = _out_dir(cfg)
    paths = [write_sweep_csv(table, out / f"{stem}.csv") for stem, table, _ in tables]
    if args.heatmap:
        for stem, table, _ in tables:
            paths.append(write_heatmap_pgm(table.metric, out / f"{stem}_heatmap.pgm"))
    if result.missing:
        paths.append(write_missing_csv(result, out / "missing.csv"))
        print(f"{len(result.missing)} of {result.metric.size} cells missing, see missing.csv")
    _write_manifest(out, args.command, cfg, paths)
    for label, (d_best, t_best) in best.items():
        print(f"{label}: depth={d_best:.6g} tilt={t_best:.6g} deg")
    return _EXIT_OK


def _cmd_layers(args, cfg: RunConfig) -> int:
    if cfg.layers is None:
        raise ConfigError("the layers command needs a [layers] section")
    result = layers_experiment(
        cfg.scene,
        cfg.layers.layer_counts,
        cfg.layers.factors,
        n_s=cfg.n_s,
        n_u=cfg.n_u,
        plane=cfg.plane,
        seed=cfg.seed,
    )
    out = _out_dir(cfg)
    paths = [write_layers_rmse_csv(result, f, out / f"layers_rmse_{f}.csv") for f in result.rmse]
    paths.append(write_curve_csv(result, out / "sampling_curve.csv"))
    _write_manifest(out, "layers", cfg, paths)
    for li, count in enumerate(result.layer_counts):
        images = " ".join(f"{fam}={counts[li]}" for fam, counts in result.images.items())
        print(f"L={count}: images {images}")
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
