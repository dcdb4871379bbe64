import hashlib
import importlib.resources
import math
import re
import sys
from pathlib import Path
from textwrap import dedent

import pytest

import epifield
from epifield.cli import main
from epifield.config import (
    ConfigError,
    LayersSpec,
    SweepSpec,
    load_config,
    load_preset,
)
from epifield.mapping import DEFAULT_U_MAX, PlaneParam
from epifield.scene import DEFAULT_OMEGAS
from epifield.spectral import plane_fan

FULL_CONFIG = dedent(
    """
    [scene]
    name = ramp
    z0 = 1.6
    tilt_deg = 12.0
    quad = -0.2
    x_min = -0.6
    x_max = 0.6

    [texture]
    omegas = 10 20
    angular_bandwidth = 1.5
    noise_sigma = 0.05

    [plane]
    focal = 1.0
    depth = 1.4      ; finite plane
    tilt_deg = 8.0
    s_max = 0.9
    u_max = 0.25

    [grid]
    n_s = 64
    n_u = 32

    [run]
    seed = 5
    out_dir = artifacts
    threads = 2
    window = hann
    keep_fraction = 0.02
    subsample_factor = 2

    [sweep]
    depth_min = 1.0
    depth_max = 2.0
    depth_count = 3
    tilt_min = 0.0
    tilt_max = 20.0
    tilt_count = 2
    factor = 4

    [layers]
    layer_counts = 1 2
    factors = 2 4
    """
)


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_presets_frozen_fields():
    a = load_preset("A")
    assert (a.surface.z0, a.surface.tilt_deg, a.surface.quad) == (1.5, 17.0, 0.0)
    assert a.surface.x_range == (-0.8, 0.8)
    assert a.texture.omegas == DEFAULT_OMEGAS
    assert a.texture.is_lambertian and a.texture.noise_sigma == 0.0

    b = load_preset("B")
    assert (b.surface.z0, b.surface.tilt_deg, b.surface.quad) == (1.5, 17.0, -0.4)
    assert b.surface.x_range == (-0.8, 0.8)
    assert b.texture == a.texture and b.name == "B"

    c = load_preset("c")  # case-insensitive
    assert (c.surface.tilt_deg, c.surface.quad) == (50.0, -1.0)
    assert c.surface.x_range == (-0.5, 0.5)
    assert c.name == "C"

    with pytest.raises(ConfigError):
        load_preset("D")


def test_presets_are_python_values(monkeypatch):
    # the package ships its modules and nothing else, and no preset is read from a file
    package = Path(epifield.__file__).parent
    assert [p.name for p in package.iterdir() if p.suffix != ".py"] in ([], ["__pycache__"])

    def no_resources(*args):
        raise AssertionError("a preset was read as a package resource")

    monkeypatch.setattr(importlib.resources, "files", no_resources)
    assert [load_preset(n).name for n in ("a", "B", " c ")] == ["A", "B", "C"]


def test_load_config_full(tmp_path):
    cfg = load_config(_write(tmp_path, FULL_CONFIG))
    assert cfg.scene.name == "ramp"
    assert cfg.scene.surface.z0 == 1.6
    assert cfg.scene.texture.omegas == (10.0, 20.0)
    assert cfg.scene.texture.noise_sigma == 0.05
    assert cfg.plane.depth == 1.4 and cfg.plane.tilt_deg == 8.0
    assert cfg.plane.s_max == 0.9 and cfg.plane.u_max == 0.25
    assert (cfg.n_s, cfg.n_u) == (64, 32)
    assert (cfg.seed, cfg.out_dir, cfg.threads) == (5, "artifacts", 2)
    assert cfg.window == "hann"
    assert cfg.keep_fraction == 0.02 and cfg.subsample_factor == 2
    assert cfg.sweep == SweepSpec(1.0, 2.0, 3, 0.0, 20.0, 2, factor=4)
    assert cfg.layers == LayersSpec((1, 2), (2, 4))


def test_ini_values_are_read_as_written(tmp_path):
    # no %-interpolation: a percent sign is a character like any other
    text = FULL_CONFIG.replace("name = ramp", "name = ramp 50%")
    assert load_config(_write(tmp_path, text)).scene.name == "ramp 50%"


def test_load_config_preset_with_texture_override(tmp_path):
    path = _write(
        tmp_path,
        "[scene]\npreset = A\n\n[texture]\nnoise_sigma = 0.5\n\n[plane]\ndepth = infinity\n",
    )
    cfg = load_config(path)
    assert cfg.scene.name == "A"
    assert cfg.scene.surface.tilt_deg == 17.0
    assert cfg.scene.texture.noise_sigma == 0.5
    assert cfg.scene.texture.omegas == DEFAULT_OMEGAS  # preset texture kept
    assert cfg.plane.is_directional
    # defaults fill everything else
    assert (cfg.n_s, cfg.n_u, cfg.seed, cfg.threads) == (512, 512, 0, 1)
    assert cfg.window is None


def test_load_config_structural_errors(tmp_path):
    with pytest.raises(ConfigError, match="no such config"):
        load_config(tmp_path / "absent.cfg")
    path = _write(tmp_path, "[scene]\npreset = A\n")
    with pytest.raises(ConfigError, match=r"missing \[plane\]"):
        load_config(path)
    path = _write(tmp_path, "[scene]\npreset = A\n\n[plane]\nfocal = 1.0\n")
    with pytest.raises(ConfigError, match="depth"):
        load_config(path)
    path = _write(tmp_path, "[plane]\ndepth = 2.0\n")
    with pytest.raises(ConfigError, match=r"missing \[scene\]"):
        load_config(path)
    path = _write(
        tmp_path, "[scene]\npreset = A\n\n[plane]\ndepth = 2.0\n\n[run]\nwindow = hamming\n"
    )
    with pytest.raises(ConfigError, match="window"):
        load_config(path)
    path = _write(
        tmp_path, "[scene]\npreset = A\n\n[plane]\ndepth = 2.0\n\n[grid]\nn_s = many\n"
    )
    with pytest.raises(ConfigError, match="n_s"):
        load_config(path)


def test_load_config_overrides(tmp_path):
    path = _write(tmp_path, FULL_CONFIG)
    cfg = load_config(path, seed=99, out_dir="elsewhere", threads=8)
    assert (cfg.seed, cfg.out_dir, cfg.threads) == (99, "elsewhere", 8)


def test_config_hash_ignores_run_housekeeping(tmp_path):
    path = _write(tmp_path, FULL_CONFIG)
    base = load_config(path).config_hash()
    assert load_config(path, seed=99, out_dir="x", threads=7).config_hash() == base
    bumped = load_config(_write(tmp_path, FULL_CONFIG.replace("n_s = 64", "n_s = 128"), "b.cfg"))
    assert bumped.config_hash() != base
    assert re.fullmatch(r"[0-9a-f]{64}", base)


def test_config_hash_falls_back_to_hashlib(tmp_path, monkeypatch):
    cfg = load_config(_write(tmp_path, FULL_CONFIG))
    builtin = cfg.config_hash()
    monkeypatch.setitem(sys.modules, "_sha2", None)  # None makes the import fail
    monkeypatch.setitem(sys.modules, "_sha256", None)
    assert cfg.config_hash() == builtin == hashlib.sha256(cfg.canonical().encode()).hexdigest()


def test_the_default_capture_is_plane_param(tmp_path):
    assert PlaneParam() == PlaneParam(1.0, math.inf, 0.0, 1.0, DEFAULT_U_MAX)
    cfg = load_config(_write(tmp_path, "[scene]\npreset = B\n\n[plane]\ndepth = infinity\n"))
    assert cfg.plane == PlaneParam()
    # every manifest written earlier must keep naming this config
    assert cfg.config_hash() == (
        "eea659b974080c8058548472e278cc4cc5e65614951ee6f317c8e4818013c83f"
    )


# --- command line ---------------------------------------------------------


def test_cli_version_and_usage_errors(capsys):
    assert main(["--version"]) == 0
    assert "epifield" in capsys.readouterr().out
    assert main([]) == 1
    assert main(["transmogrify"]) == 1
    assert main(["render"]) == 1  # --config is required
    assert main(["render", "--config", "does-not-exist.cfg"]) == 1


def _tiny_cfg(tmp_path, out, extra=""):
    return _write(
        tmp_path,
        dedent(
            f"""
            [scene]
            preset = A

            [plane]
            depth = infinity

            [grid]
            n_s = 16
            n_u = 16

            [run]
            out_dir = {out}
            """
        )
        + dedent(extra),
        name=f"tiny{abs(hash(extra)) % 10_000}.cfg",
    )


def test_cli_render(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _tiny_cfg(tmp_path, out)
    assert main(["render", "--config", str(cfg)]) == 0
    assert (out / "epi.pgm").is_file() and (out / "epi.meta").is_file()
    manifest = (out / "manifest.txt").read_text()
    assert "command = render" in manifest
    assert re.search(r"config_hash = [0-9a-f]{64}", manifest)
    assert "artifact = epi.pgm" in manifest
    assert "wrote" in capsys.readouterr().out


def test_cli_render_seed_override_keeps_hash(tmp_path):
    out = tmp_path / "out"
    cfg = _tiny_cfg(tmp_path, out)
    main(["render", "--config", str(cfg)])
    first = (out / "manifest.txt").read_text()
    main(["render", "--config", str(cfg), "--seed", "9"])
    second = (out / "manifest.txt").read_text()
    get = lambda text, key: re.search(rf"{key} = (\S+)", text).group(1)
    assert get(first, "config_hash") == get(second, "config_hash")
    assert get(first, "seed") == "0" and get(second, "seed") == "9"


def test_cli_spectrum(tmp_path):
    out = tmp_path / "spec_out"
    cfg = _tiny_cfg(tmp_path, out, extra="window = rect\n")  # appended to [run]
    assert main(["spectrum", "--config", str(cfg)]) == 0
    for suffix in (".pgm", ".f64", ".hdr"):
        assert (out / f"spectrum{suffix}").is_file()
    bounds = (out / "bounds.txt").read_text()
    assert "window = rect" in bounds
    assert "slope_lo" in bounds and "z_min" in bounds


def test_cli_spectrum_writes_the_fan_of_any_plane(tmp_path):
    # a tilted plane that is not the scene's depth-line fit still gets its fan
    out = tmp_path / "mismatch_out"
    cfg = _write(
        tmp_path,
        dedent(
            f"""
            [scene]
            preset = B

            [plane]
            depth = 1.3
            tilt_deg = 10.0

            [grid]
            n_s = 16
            n_u = 16

            [run]
            out_dir = {out}
            """
        ),
    )
    assert main(["spectrum", "--config", str(cfg)]) == 0
    run = load_config(cfg)
    assert run.plane.tilt_deg == 10.0
    surface = run.scene.surface
    fan = plane_fan(run.plane, surface, run.scene.texture.angular_bandwidth)
    z_min, z_max = surface.depth_extremes()
    want = [
        "window = hann",
        f"slope_lo = {fan.slope_lo!r}",
        f"slope_hi = {fan.slope_hi!r}",
        f"margin = {fan.margin!r}",
        f"z_min = {z_min!r}",
        f"z_max = {z_max!r}",
    ]
    assert (out / "bounds.txt").read_text().splitlines() == want


def test_cli_guidelines_preset(capsys):
    assert main(["guidelines", "--scene", "A"]) == 0
    text = capsys.readouterr().out
    values = dict(line.split(" = ") for line in text.strip().splitlines())
    assert values["scene"] == "A"
    assert float(values["z_min"]) == pytest.approx(1.2554154548330716, rel=1e-5)
    assert float(values["plane_depth"]) == pytest.approx(1.4601189335103246, rel=1e-5)
    assert "focus_depth" not in values
    assert float(values["wu_max"]) == pytest.approx(2996.18, rel=1e-5)
    assert int(values["images_parallel"]) == 1340
    # the scene is an exact plane: the tilted frame needs only the end cameras
    assert int(values["images_tilted"]) == 2
    assert float(values["fitted_tilt_deg"]) == pytest.approx(17.0, rel=1e-6)
    assert "s_crossing" not in values  # directional default plane has no chirp


def test_cli_guidelines_tilted_plane_prints_chirp(tmp_path, capsys):
    out = tmp_path / "guide_out"
    cfg = _write(
        tmp_path,
        dedent(
            f"""
            [scene]
            preset = A

            [plane]
            depth = 1.5
            tilt_deg = 17.0

            [run]
            out_dir = {out}
            """
        ),
    )
    assert main(["guidelines", "--config", str(cfg), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    for key in ("s_crossing", "chirp_base_frequency", "chirp_rate", "chirp_crossing_frequency"):
        assert key in text
    saved = (out / "guidelines.txt").read_text()
    assert saved.strip() == text.strip()
    assert "command = guidelines" in (out / "manifest.txt").read_text()


def test_cli_config_and_scene_are_exclusive(tmp_path, capsys):
    out = tmp_path / "both_out"
    cfg = _tiny_cfg(tmp_path, out)
    assert main(["guidelines", "--config", str(cfg), "--scene", "C", "--out", str(out)]) == 1
    assert "not allowed with" in capsys.readouterr().err
    assert not out.exists()
    assert main(["guidelines"]) == 1


@pytest.mark.parametrize("key, value", [("z0", "9.0"), ("name", "mine"), ("quad", "0.3")])
def test_preset_scene_takes_no_other_scene_key(tmp_path, capsys, key, value):
    out = tmp_path / "mixed_out"
    path = _write(
        tmp_path,
        f"[scene]\npreset = A\n{key} = {value}\n\n[plane]\ndepth = inf\n\n[run]\nout_dir = {out}\n",
    )
    with pytest.raises(ConfigError, match=f"preset and {key}"):
        load_config(path)
    assert main(["render", "--config", str(path)]) == 1
    assert f"preset and {key}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_guidelines_rejects_unknown_preset():
    assert main(["guidelines", "--scene", "Z"]) == 1


@pytest.mark.parametrize("preset", ["A", "B", "C"])
def test_cli_guidelines_scene_equals_its_config(tmp_path, capsys, preset):
    cfg = _write(tmp_path, f"[scene]\npreset = {preset}\n\n[plane]\ndepth = inf\n")
    by_scene, by_config = tmp_path / "scene", tmp_path / "config"
    assert main(["guidelines", "--scene", preset, "--out", str(by_scene)]) == 0
    printed = capsys.readouterr().out
    assert main(["guidelines", "--config", str(cfg), "--out", str(by_config)]) == 0
    assert capsys.readouterr().out == printed
    manifest = (by_config / "manifest.txt").read_bytes()
    assert (by_scene / "manifest.txt").read_bytes() == manifest


def test_cli_scene_value_cannot_inject_sections(capsys):
    # as INI text this would parse as preset A plus a [grid] section
    assert main(["guidelines", "--scene", "A\n[grid]\nn_u = 64"]) == 1
    assert "unknown scene preset" in capsys.readouterr().err
    assert main(["guidelines", "--scene", "A%(x)s"]) == 1


def test_cli_sweep_sparsity(tmp_path, capsys):
    out = tmp_path / "sweep_out"
    cfg = _tiny_cfg(
        tmp_path,
        out,
        extra="""
        [sweep]
        depth_min = 1.3
        depth_max = 1.7
        depth_count = 2
        tilt_min = 0.0
        tilt_max = 17.0
        tilt_count = 2
        """,
    )
    assert main(["sweep-sparsity", "--config", str(cfg), "--heatmap"]) == 0
    for name in ("sparsity.csv", "plane_mae.csv", "sparsity_heatmap.pgm", "plane_mae_heatmap.pgm"):
        assert (out / name).is_file()
    stdout = capsys.readouterr().out
    assert "sparsity argmin" in stdout and "plane_mae argmin" in stdout


def test_cli_sweep_needs_sweep_section(tmp_path):
    cfg = _tiny_cfg(tmp_path, tmp_path / "nosweep_out")
    assert main(["sweep-sparsity", "--config", str(cfg)]) == 1
    assert main(["reconstruct", "--config", str(cfg)]) == 1


def test_cli_reconstruct(tmp_path, capsys):
    out = tmp_path / "rec_out"
    cfg = _tiny_cfg(
        tmp_path,
        out,
        extra="""
        [sweep]
        depth_min = 1.4
        depth_max = 1.6
        depth_count = 2
        tilt_min = 0.0
        tilt_max = 0.0
        tilt_count = 1
        factor = 4
        """,
    )
    assert main(["reconstruct", "--config", str(cfg)]) == 0
    assert (out / "psnr.csv").is_file()
    assert not (out / "psnr_heatmap.pgm").exists()
    assert "factor 4" in capsys.readouterr().out
    assert main(["reconstruct", "--config", str(cfg), "--heatmap"]) == 0
    assert (out / "psnr_heatmap.pgm").is_file()
    assert "artifact = psnr_heatmap.pgm" in (out / "manifest.txt").read_text()


def test_cli_lossless_reconstruction_draws_a_white_heatmap(tmp_path):
    # factor 1 drops no row: every cell rebuilds exactly, so every PSNR is inf
    out = tmp_path / "lossless_out"
    cfg = _tiny_cfg(
        tmp_path,
        out,
        extra="""
        [sweep]
        depth_min = 1.4
        depth_max = 1.6
        depth_count = 2
        tilt_min = 0.0
        tilt_max = 10.0
        tilt_count = 2
        factor = 1
        """,
    )
    assert main(["reconstruct", "--config", str(cfg), "--heatmap"]) == 0
    rows = (out / "psnr.csv").read_text().splitlines()[1:]
    assert len(rows) == 4 and all(row.endswith(",inf") for row in rows)
    samples = (out / "psnr_heatmap.pgm").read_bytes()[len(b"P5\n2 2\n65535\n") :]
    assert samples == b"\xff\xff" * 4


def test_removed_override_flags_are_usage_errors(tmp_path):
    out = tmp_path / "flag_out"
    cfg = _tiny_cfg(tmp_path, out, extra=_depth_sweep(1.4, 1.6))
    assert main(["spectrum", "--config", str(cfg), "--window", "rect"]) == 1
    assert main(["reconstruct", "--config", str(cfg), "--factor", "4"]) == 1
    assert not out.exists()


def test_manifest_hash_identifies_the_artifacts(tmp_path):
    # every run that asks for another window or factor must record another hash
    sweep = _depth_sweep(1.4, 1.6)
    runs = [
        ("spectrum", "", []),
        ("spectrum", "window = rect\n", []),
        ("spectrum", "", ["--window", "rect"]),
        ("reconstruct", sweep, []),
        ("reconstruct", sweep.replace("factor = 2", "factor = 4"), []),
        ("reconstruct", sweep, ["--factor", "4"]),
    ]
    artifacts_by_hash = {}
    for i, (command, extra, flags) in enumerate(runs):
        out = tmp_path / f"run{i}"
        if main([command, "--config", str(_tiny_cfg(tmp_path, out, extra)), *flags]) != 0:
            continue
        manifest = (out / "manifest.txt").read_text()
        config_hash = re.search(r"config_hash = (\S+)", manifest).group(1)
        artifacts = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.txt"}
        assert artifacts_by_hash.setdefault(config_hash, artifacts) == artifacts
    assert len(artifacts_by_hash) == 4


def _depth_sweep(depth_min, depth_max):
    return f"""
        [sweep]
        depth_min = {depth_min}
        depth_max = {depth_max}
        depth_count = 3
        tilt_min = 0.0
        tilt_max = 0.0
        tilt_count = 1
        factor = 2
        """


def test_cli_sweep_writes_missing_cells(tmp_path, capsys):
    out = tmp_path / "missing_out"
    cfg = _tiny_cfg(tmp_path, out, extra=_depth_sweep(-1.0, 1.5))
    assert main(["sweep-sparsity", "--config", str(cfg)]) == 0
    rows = (out / "missing.csv").read_text().splitlines()
    assert rows[0] == "depth,tilt_deg,reason"
    assert rows[1:] == ["-1.0,0.0,plane depth must be positive (math.inf allowed)"]
    assert "artifact = missing.csv" in (out / "manifest.txt").read_text()
    assert "1 of 3 cells missing" in capsys.readouterr().out


def test_cli_sweep_plane_mae_is_nan_at_the_missing_cells(tmp_path):
    out = tmp_path / "plane_mae_out"
    cfg = _write(
        tmp_path,
        dedent(
            f"""
            [scene]
            preset = C

            [plane]
            depth = infinity

            [grid]
            n_s = 16
            n_u = 16

            [run]
            out_dir = {out}

            [sweep]
            depth_min = 1.0
            depth_max = 1.5
            depth_count = 2
            tilt_min = 10.0
            tilt_max = 50.0
            tilt_count = 2
            """
        ),
        name="plane_mae.cfg",
    )
    assert main(["sweep-sparsity", "--config", str(cfg), "--heatmap"]) == 0
    missing = [row.split(",") for row in (out / "missing.csv").read_text().splitlines()[1:]]
    # the invalid plane, then the two cells where rays meet C twice
    assert missing == [
        ["1.0", "50.0", "camera range +-1.0 reaches the plane/camera-line crossing at s = -0.8391"],
        ["1.5", "10.0", "3 of 256 rays meet the surface twice"],
        ["1.5", "50.0", "12 of 256 rays meet the surface twice"],
    ]
    rows = [row.split(",") for row in (out / "sparsity.csv").read_text().splitlines()[1:]]
    assert [row[:2] for row in rows if row[2] == "nan"] == [cell[:2] for cell in missing]
    # the plane fit renders nothing: it is NaN at the invalid plane only
    rows = [row.split(",") for row in (out / "plane_mae.csv").read_text().splitlines()[1:]]
    assert [row[:2] for row in rows if row[2] == "nan"] == [["1.0", "50.0"]]
    samples = (out / "plane_mae_heatmap.pgm").read_bytes()[len(b"P5\n2 2\n65535\n") :]
    assert samples[2:4] == b"\x00\x00"  # the missing cell is black


def test_cli_sweep_with_every_cell_missing_exits_2(tmp_path, capsys):
    out = tmp_path / "all_missing_out"
    cfg = _tiny_cfg(tmp_path, out, extra=_depth_sweep(-2.0, -1.0))
    for command in ("sweep-sparsity", "reconstruct"):
        assert main([command, "--config", str(cfg), "--heatmap"]) == 2
        err = capsys.readouterr().err
        assert "every cell is missing" in err and "plane depth must be positive" in err
        assert "All-NaN" not in err
        assert not out.exists()  # no CSV, heatmap, missing.csv or manifest


def test_cli_subnormal_tilt_is_a_valid_plane(tmp_path, capsys):
    # tan(radians(5e-324)) rounds to 0: the plane is parallel, not a crash
    out = tmp_path / "subnormal_out"
    cfg = _write(
        tmp_path,
        dedent(
            f"""
            [scene]
            preset = A

            [plane]
            depth = 1.5
            tilt_deg = 5e-324

            [grid]
            n_s = 16
            n_u = 16

            [run]
            out_dir = {out}

            [sweep]
            depth_min = 1.0
            depth_max = 2.0
            depth_count = 2
            tilt_min = 0.0
            tilt_max = 5e-324
            tilt_count = 2
            factor = 2
            """
        ),
        name="subnormal.cfg",
    )
    assert main(["render", "--config", str(cfg)]) == 0
    assert main(["sweep-sparsity", "--config", str(cfg)]) == 0
    rows = (out / "sparsity.csv").read_text().splitlines()
    assert len(rows) == 5 and "nan" not in (out / "sparsity.csv").read_text().lower()
    assert not (out / "missing.csv").exists()


def test_threads_below_one_is_a_config_error(tmp_path):
    bad = _write(tmp_path, FULL_CONFIG.replace("threads = 2", "threads = 0"), name="t0.cfg")
    with pytest.raises(ConfigError, match="threads"):
        load_config(bad)
    good = _write(tmp_path, FULL_CONFIG)
    with pytest.raises(ConfigError, match="threads"):
        load_config(good, threads=-3)
    assert main(["render", "--config", str(bad)]) == 1
    assert main(["sweep-sparsity", "--config", str(good), "--threads", "-3"]) == 1
    assert main(["guidelines", "--scene", "A", "--threads", "0"]) == 1


@pytest.mark.parametrize("factor", [0, -4])
def test_subsample_factor_below_one_is_a_config_error(tmp_path, capsys, factor):
    text = FULL_CONFIG.replace("subsample_factor = 2", f"subsample_factor = {factor}")
    bad = _write(tmp_path, text, name=f"sub{factor}.cfg")
    with pytest.raises(ConfigError, match="subsample_factor"):
        load_config(bad)
    out = tmp_path / "out"
    assert main(["sweep-sparsity", "--config", str(bad), "--out", str(out)]) == 1
    assert "subsample_factor must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_subsample_factor_leaving_one_row_exits_2(tmp_path, capsys):
    # n_s = 64 at factor 64 keeps one camera row, which has no s spacing
    text = FULL_CONFIG.replace("subsample_factor = 2", "subsample_factor = 64")
    path = _write(tmp_path, text, name="one_row.cfg")
    out = tmp_path / "out"
    assert main(["sweep-sparsity", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "subsample_factor" in err and "n_s" in err
    assert not out.exists()


def _set(text, section, key, value):
    head, sep, body = text.partition(f"[{section}]")
    body = re.sub(rf"^{key} = .*$", f"{key} = {value}", body, count=1, flags=re.M)
    return head + sep + body


def test_reconstruct_factor_not_dividing_n_s_names_both(tmp_path, capsys):
    text = _set(_set(FULL_CONFIG, "sweep", "factor", "3"), "grid", "n_s", "256")
    path = _write(tmp_path, text, name="factor3.cfg")
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", str(path), "--out", str(out)]) == 2
    assert "precondition failed: factor 3 must divide n_s=256" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("texture", "omegas", "20 nan"),
        ("texture", "angular_bandwidth", "inf"),
        ("texture", "noise_sigma", "nan"),
        ("plane", "focal", "inf"),
        ("plane", "tilt_deg", "nan"),
        ("plane", "s_max", "inf"),
        ("plane", "u_max", "nan"),
        ("plane", "depth", "nan"),
        ("plane", "depth", "-inf"),
        ("sweep", "depth_min", "-inf"),
        ("sweep", "tilt_max", "inf"),
    ],
)
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, section, key, value):
    text = _set(FULL_CONFIG, section, key, value)
    assert text != FULL_CONFIG
    path = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=key):
        load_config(path)
    assert main(["sweep-sparsity", "--config", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


def _assert_rejected(tmp_path, capsys, path, command, *words, flags=()):
    """The command exits 1 before writing anything, naming every word on stderr."""
    out = tmp_path / "rejected_out"
    assert main([command, "--config", str(path), "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    for word in words:
        assert word in err
    assert not out.exists()


def _insert(text, section, line):
    head, sep, body = text.partition(f"[{section}]\n")
    assert sep
    return f"{head}{sep}{line}\n{body}"


@pytest.mark.parametrize(
    "section", ["scene", "texture", "plane", "grid", "run", "sweep", "layers"]
)
def test_unknown_key_is_a_config_error(tmp_path, capsys, section):
    path = _write(tmp_path, _insert(FULL_CONFIG, section, "colour = red"))
    with pytest.raises(ConfigError, match=rf"unknown key 'colour' in \[{section}\]"):
        load_config(path)
    _assert_rejected(tmp_path, capsys, path, "render", "colour", f"[{section}]")


@pytest.mark.parametrize("section", ["textures", "DEFAULT"])
def test_unknown_section_is_a_config_error(tmp_path, capsys, section):
    path = _write(tmp_path, FULL_CONFIG + f"\n[{section}]\nnoise_sigma = 0.5\n")
    with pytest.raises(ConfigError, match=rf"unknown section \[{section}\]"):
        load_config(path)
    _assert_rejected(tmp_path, capsys, path, "render", f"[{section}]")


def test_misspelt_keys_do_not_run_as_defaults(tmp_path, capsys):
    # a typo must not run reconstruct at factor 1 and noise 0 under an ordinary hash
    sweep = dedent(_depth_sweep(1.4, 1.6)).replace("factor = 2", "factr = 4")
    textures = "[textures]\nnoise_sigma = 0.5\n"
    misspelt = _tiny_cfg(tmp_path, tmp_path / "unused", sweep + textures)
    _assert_rejected(tmp_path, capsys, misspelt, "reconstruct", "[textures]")
    misspelt = _tiny_cfg(tmp_path, tmp_path / "unused", sweep)
    _assert_rejected(tmp_path, capsys, misspelt, "reconstruct", "factr")


def test_negative_seed_is_a_config_error_on_a_noise_free_scene(tmp_path, capsys):
    path = _tiny_cfg(tmp_path, tmp_path / "unused")
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        load_config(path, seed=-1)
    _assert_rejected(tmp_path, capsys, path, "render", "seed must be >= 0", flags=["--seed", "-1"])


@pytest.mark.parametrize(
    "flags, words",
    [(["--seed", "-1"], ["--seed", "seed must be >= 0"]), (["--threads", "0"], ["--threads"])],
)
def test_override_range_errors_name_the_flag(tmp_path, capsys, flags, words):
    # the file sets neither key, so its [run] section is not where the bad value is
    out = tmp_path / "out"
    path = _tiny_cfg(tmp_path, out)
    assert main(["render", "--config", str(path), *flags]) == 1
    err = capsys.readouterr().err
    for word in words:
        assert word in err
    assert "[run]" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, extra, words",
    [
        ("reconstruct", _depth_sweep(1.4, 1.6).replace("factor = 2", "factor = 0"), "factor"),
        ("layers", "[layers]\nlayer_counts = 0\nfactors = 2\n", "layer_counts"),
        ("layers", "[layers]\nlayer_counts = 1\nfactors = 0\n", "factors"),
        ("sweep-sparsity", "keep_fraction = 0\n" + dedent(_depth_sweep(1.4, 1.6)), "keep_fraction"),
        ("sweep-sparsity", "keep_fraction = 1.5\n" + dedent(_depth_sweep(1.4, 1.6)), "keep_fraction"),
    ],
    ids=["factor-0", "layer_counts-0", "factors-0", "keep_fraction-0", "keep_fraction-1.5"],
)
def test_settings_out_of_range_are_config_errors(tmp_path, capsys, command, extra, words):
    path = _tiny_cfg(tmp_path, tmp_path / "unused", extra)
    with pytest.raises(ConfigError, match=words):
        load_config(path)
    _assert_rejected(tmp_path, capsys, path, command, words)


STUDIES = Path(__file__).resolve().parent.parent / "studies"
README = Path(__file__).resolve().parent.parent / "README.md"


def test_study_configs_keep_the_study_defaults():
    sparsity = load_config(STUDIES / "sparsity_B.ini")
    assert sparsity.scene.name == "B" and (sparsity.n_s, sparsity.n_u) == (256, 256)
    assert (sparsity.sweep.depth_count, sparsity.sweep.tilt_count) == (40, 40)
    recon = load_config(STUDIES / "reconstruction_A.ini")
    assert recon.scene.name == "A" and recon.sweep.factor == 64
    assert (recon.sweep.depth_count, recon.sweep.tilt_count) == (20, 20)
    layers = load_config(STUDIES / "layers_C.ini")
    assert layers.scene.name == "C" and (layers.n_s, layers.n_u) == (1024, 512)
    assert layers.layers.layer_counts == (1, 2, 4, 8, 16)
    assert layers.layers.factors == (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 512)
    # the manifests of earlier study runs must keep naming these settings
    assert sparsity.config_hash() == (
        "2184d8da93a20c3286f03ca3144fb44cc542a83a02ec7185e81d99ae4f94fe8d"
    )
    assert recon.config_hash() == (
        "a108f27f1a9dd6c41f3264dac07ef70ae788ffc3429b9fc1da94e1d493ecb0a9"
    )
    assert layers.config_hash() == (
        "1fc0783b61da59a4a218ebc0795172af92c4ebf767f24a3eeb0ff4860ea08b7d"
    )


def test_readme_config_example_loads(tmp_path):
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    cfg = load_config(_write(tmp_path, blocks[0], name="readme.ini"))
    assert cfg.scene.name == "A" and cfg.scene.texture.noise_sigma == 0.05
    assert cfg.window == "hann" and cfg.sweep.factor == 64
    assert cfg.layers.factors == (2, 4, 8, 16, 32, 64, 128, 256)


def test_cli_layers(tmp_path, capsys):
    out = tmp_path / "layers_out"
    cfg = _write(
        tmp_path,
        dedent(
            f"""
            [scene]
            preset = C

            [plane]
            depth = infinity

            [grid]
            n_s = 32
            n_u = 32

            [run]
            out_dir = {out}

            [layers]
            layer_counts = 1 2
            factors = 2
            """
        ),
    )
    assert main(["layers", "--config", str(cfg)]) == 0
    for name in ("layers_rmse_parallel.csv", "layers_rmse_tilted.csv", "sampling_curve.csv"):
        assert (out / name).is_file()
    stdout = capsys.readouterr().out
    assert "L=1:" in stdout and "L=2:" in stdout


def test_cli_layers_needs_layers_section(tmp_path):
    cfg = _tiny_cfg(tmp_path, tmp_path / "nolayers_out")
    assert main(["layers", "--config", str(cfg)]) == 1


def test_cli_precondition_failures_exit_2(tmp_path, capsys):
    def render(name, scene, depth, tilt):
        out = tmp_path / f"{name}_out"
        cfg = _write(
            tmp_path,
            f"[scene]\npreset = {scene}\n\n[plane]\ndepth = {depth}\ntilt_deg = {tilt}\n\n"
            f"[grid]\nn_s = 16\nn_u = 16\n\n[run]\nout_dir = {out}\n",
            name=f"{name}.cfg",
        )
        return main(["render", "--config", str(cfg)])

    # the parallel plane `guidelines --scene B` recommends: no ray meets B twice
    assert render("b_parallel", "B", 1.21783, 0.0) == 0
    capsys.readouterr()
    # C's recommended tilted plane: rays near s = -1 meet C twice
    assert render("c_tilted", "C", 1.41601, 50.0) == 2
    err = capsys.readouterr().err
    assert "precondition failed: 19 of 256 rays meet the surface twice" in err
    assert not (tmp_path / "c_tilted_out").exists()

    bad_plane = _write(
        tmp_path,
        "[scene]\npreset = A\n\n[plane]\ndepth = -1.0\n",
        name="badplane.cfg",
    )
    assert main(["render", "--config", str(bad_plane)]) == 2


def test_cli_blind_layers_capture_exits_2(tmp_path, capsys):
    out = tmp_path / "blind_out"
    blind = _write(
        tmp_path,
        dedent(
            f"""
            [scene]
            z0 = 1.5
            tilt_deg = 17.0
            quad = 0.0
            x_min = 10.0
            x_max = 11.0

            [plane]
            depth = infinity

            [grid]
            n_s = 16
            n_u = 16

            [run]
            out_dir = {out}

            [layers]
            layer_counts = 1
            factors = 2
            """
        ),
        name="blind.cfg",
    )
    assert main(["layers", "--config", str(blind)]) == 2
    assert "precondition failed: the capture never sees the surface" in capsys.readouterr().err
    assert not out.exists()


def test_cli_surface_past_the_depth_bound_exits_2(tmp_path, capsys):
    far = _write(
        tmp_path,
        "[scene]\nz0 = 1e300\ntilt_deg = 0.0\nquad = 0.0\nx_min = -1.0\nx_max = 1.0\n"
        "\n[plane]\ndepth = infinity\n",
    )
    assert main(["guidelines", "--config", str(far)]) == 2
    assert "precondition failed: surface depth bound" in capsys.readouterr().err
