import math
import re
from pathlib import Path
from textwrap import dedent

import pytest

from epifield.cli import main
from epifield.config import (
    ConfigError,
    LayersSpec,
    SweepSpec,
    load_config,
    load_preset,
)
from epifield.scene import DEFAULT_OMEGAS

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

    c = load_preset("c")  # case-insensitive
    assert (c.surface.tilt_deg, c.surface.quad) == (50.0, -1.0)
    assert c.surface.x_range == (-0.5, 0.5)
    assert c.name == "C"

    with pytest.raises(ConfigError):
        load_preset("D")


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
    cfg = _tiny_cfg(tmp_path, out)
    assert main(["spectrum", "--config", str(cfg), "--window", "rect"]) == 0
    for suffix in (".pgm", ".f64", ".hdr"):
        assert (out / f"spectrum{suffix}").is_file()
    bounds = (out / "bounds.txt").read_text()
    assert "window = rect" in bounds
    assert "slope_lo" in bounds and "z_min" in bounds


def test_cli_spectrum_mismatched_tilted_plane_notes_it(tmp_path):
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
    bounds = (out / "bounds.txt").read_text()
    assert "note = plane does not match" in bounds
    assert "slope_lo" not in bounds


def test_cli_guidelines_preset(capsys):
    assert main(["guidelines", "--scene", "A"]) == 0
    text = capsys.readouterr().out
    values = dict(line.split(" = ") for line in text.strip().splitlines())
    assert values["scene"] == "A"
    assert float(values["z_min"]) == pytest.approx(1.2554154548330716, rel=1e-5)
    assert float(values["focus_depth"]) == pytest.approx(1.4601189335103246, rel=1e-5)
    assert values["plane_depth"] == values["focus_depth"]
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


def test_cli_guidelines_rejects_unknown_preset():
    assert main(["guidelines", "--scene", "Z"]) == 1


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
        factor = 2
        """,
    )
    assert main(["reconstruct", "--config", str(cfg), "--factor", "4"]) == 0
    assert (out / "psnr.csv").is_file()
    assert not (out / "psnr_heatmap.pgm").exists()
    assert "factor 4" in capsys.readouterr().out
    assert main(["reconstruct", "--config", str(cfg), "--heatmap"]) == 0
    assert (out / "psnr_heatmap.pgm").is_file()
    assert "artifact = psnr_heatmap.pgm" in (out / "manifest.txt").read_text()


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


def test_cli_sweep_with_every_cell_missing_exits_2(tmp_path, capsys):
    out = tmp_path / "all_missing_out"
    cfg = _tiny_cfg(tmp_path, out, extra=_depth_sweep(-2.0, -1.0))
    for command in ("sweep-sparsity", "reconstruct"):
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "every cell is missing" in err and "plane depth must be positive" in err
        assert "All-NaN" not in err


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


def _set(text, section, key, value):
    head, sep, body = text.partition(f"[{section}]")
    body = re.sub(rf"^{key} = .*$", f"{key} = {value}", body, count=1, flags=re.M)
    return head + sep + body


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


STUDIES = Path(__file__).resolve().parent.parent / "studies"


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
    steep = _write(
        tmp_path,
        dedent(
            f"""
            [scene]
            z0 = 3.0
            tilt_deg = 80.0
            quad = 0.0
            x_min = -0.3
            x_max = 0.3

            [plane]
            depth = infinity

            [grid]
            n_s = 8
            n_u = 8

            [run]
            out_dir = {tmp_path / "steep_out"}
            """
        ),
        name="steep.cfg",
    )
    assert main(["render", "--config", str(steep)]) == 2
    assert "precondition failed" in capsys.readouterr().err

    bad_plane = _write(
        tmp_path,
        "[scene]\npreset = A\n\n[plane]\ndepth = -1.0\n",
        name="badplane.cfg",
    )
    assert main(["render", "--config", str(bad_plane)]) == 2
