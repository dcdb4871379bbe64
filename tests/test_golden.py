"""Same config + seed = same bytes: every CLI command against pinned digests.

Each command runs on one tiny config, once with one thread and once with
two; every artifact it writes (manifest included) must hash to the value
pinned here. The pins were taken from the program before the sweep driver
and the spacing helper were consolidated, so any refactor that moves a
byte fails this test. The CAPTURE pins (a non-default focal length, camera
range and image window) were taken while the sweeps and the layers
experiment still took that capture as three loose keywords. The
layers-70x33 pins come from the row-by-row layered reconstruction that
preceded the pixel-wise one. The layers stdout pins (one line of image
counts per layer count) were taken before the layered experiment keyed its
results by family. The guidelines.txt pins of guidelines-A and
guidelines-flat were retaken when planar surfaces began to take their own
depth line instead of a sampled fit (scene A's tilted spacing became inf,
the flat scene's fitted tilt exactly 0). The FITTED pins were taken while
spectrum still chose its fan in the CLI. Every guidelines.txt pin and the
TINY spectrum's bounds.txt were retaken when one exact fan replaced the
parallel and tilted fan constructors: guidelines no longer prints
focus_depth (a copy of plane_depth), the tilted spacing became the exact
range of the fitted plane's fan rather than a pairing of residual extremes
with z_min and z_max (TINY, CAPTURE, B and C), and bounds.txt now holds the
fan of any configured plane where it held a mismatch note. Regenerate pins
only for a change that is meant to alter outputs, and say so in the change
log.
"""

import csv
import hashlib
import re
from pathlib import Path
from textwrap import dedent

import pytest

from epifield.cli import main

TINY = dedent(
    """
    [scene]
    name = ramp
    z0 = 1.5
    tilt_deg = 17.0
    quad = -0.15
    x_min = -0.6
    x_max = 0.6

    [texture]
    omegas = 20 40
    angular_bandwidth = 0.5
    noise_sigma = 0.02

    [plane]
    depth = 1.5
    tilt_deg = 17.0

    [grid]
    n_s = 32
    n_u = 24

    [sweep]
    depth_min = 1.2
    depth_max = 1.8
    depth_count = 3
    tilt_min = 0.0
    tilt_max = 30.0
    tilt_count = 3
    factor = 4

    [layers]
    layer_counts = 1 2
    factors = 2 4
    """
)

# the layers run on a grid no factor divides evenly: factor 3 leaves a
# partial last block, 128 exceeds the row count and keeps one row
LAYERS_70 = TINY.replace("n_s = 32\nn_u = 24", "n_s = 70\nn_u = 33").replace(
    "layer_counts = 1 2\nfactors = 2 4", "layer_counts = 1 3\nfactors = 3 5 128"
)

# a single-depth Lambertian scene: every spacing is alias-free
FLAT = dedent(
    """
    [scene]
    z0 = 1.5
    tilt_deg = 0.0
    quad = 0.0
    x_min = -3.0
    x_max = 3.0

    [plane]
    depth = infinity
    """
)

# a capture that is not the default: the sweeps, the layers capture and the
# guideline planes must all take this focal length, camera range and window
CAPTURE = TINY.replace("[plane]\n", "[plane]\nfocal = 1.3\ns_max = 0.6\nu_max = 0.2\n")

RUNS = {
    "render": ["render"],
    "spectrum": ["spectrum"],
    "guidelines": ["guidelines"],
    "sweep-sparsity": ["sweep-sparsity", "--heatmap"],
    "reconstruct": ["reconstruct"],
    "layers": ["layers"],
}

PINS = {
    "guidelines": {
        "guidelines.txt": "2a71832529b10fb06199a9c4586fe44a0473e73fdb284eaac9e42fb52476a0f9",
        "manifest.txt": "a229aa5b9f1d95f49d371e523c1fedf8dc0e9705b1975f8ea6be122e28821362",
    },
    "guidelines-A": {
        "guidelines.txt": "98b47d477ca483e5ef04db3014241a96952506d9e8926d17fbd697ce849e9e58",
        "manifest.txt": "c0dfc95c6cf6a7abacd5bb7aa8c41f879f4d059dcca7b5d5fb946f8d6be3aa49",
    },
    "guidelines-B": {
        "guidelines.txt": "bf021a9bf27c7a99330df55d031202b6df076da35c15aa52a2505afe25acdea9",
        "manifest.txt": "8c09cce2a863536e0f09bf6a354e037a0c5f442945a2f3537c74fb51f9440063",
    },
    "guidelines-C": {
        "guidelines.txt": "ec73fa15ec8b69dad136feeb5129541f7d984b83c5417c6ca82e5ad75906781e",
        "manifest.txt": "b0383d521a87988d783576beb66a3526e43c57ffc24b8271f69d86eff2237584",
    },
    "guidelines-flat": {
        "guidelines.txt": "81b6db748c1f68f4f16d963a15aee67485be719d06dcc797c3a7a586bf5d3e99",
        "manifest.txt": "76a1c309dd95eff7e1e556d832f483170426943c31fb09d927d3ca15b52d273b",
    },
    "layers": {
        "layers_rmse_parallel.csv": "19770eb2f1db210cbcb396c10c67f664cce005d0fc51693a7e275209c00cae57",
        "layers_rmse_tilted.csv": "1dac83b0b4544da37d99fbe03f3bad40d70fa6661a8b1dcd30e860da3182ab6b",
        "manifest.txt": "2f062ec4763e0df5e4b96dbe86bdf7f143f02396be369823e55f3fe5ba4dbd44",
        "sampling_curve.csv": "a7efa1eadb21f8d4da2b0183f635f43ee9a0acf009929ad5df228c131919a513",
    },
    "layers-70x33": {
        "layers_rmse_parallel.csv": "c83adcb4ae99f05e853539c532ae5324681b5e94f968bc35b8c7f6a8aa7be9ff",
        "layers_rmse_tilted.csv": "f3d13d29c6a36720598332593608de320697be35b6a208aa6189231d6671257d",
        "manifest.txt": "ce4e6f5b0ce798abba1e551523f2cf1d36a3b26ae75752688ed8cf755e352d94",
        "sampling_curve.csv": "73aa5c1eb4aa892f62d0ead18f9718970e2e41ca75d17257147566266dafe3a9",
    },
    "reconstruct": {
        "manifest.txt": "c858fa6f80c7cea9a27cd185ea7fe520e3dcc5ab473fedc8076cb32569b42a70",
        "psnr.csv": "65e74181d4d180d554fa9068a90be41eabe0cb016db1e3a72d0590f1e73e0382",
    },
    "render": {
        "epi.meta": "588d660b70a946a93667b644cbbba714fb41fda30c4e9e80cfab5dda1e60e928",
        "epi.pgm": "44fc906122b140174e22bab35c9381403b6b8252e07d5f006c3306d12034e5d5",
        "manifest.txt": "ad80294f129bec58d962111bb3ce8ba0f6bcba4d767c4a2420690dbab934777f",
    },
    "spectrum": {
        "bounds.txt": "e232f3e4bbe887fc8e375a8aa0c97fc0b938264bd13ccfe2187c22decfbf70be",
        "manifest.txt": "137a5bdd55319a7870e4f59d36f920307c824860dabf0058c1f163580892b12b",
        "spectrum.f64": "c821f9e536658253ee326e0617dd62dec3b9809b28c4ac071e1a938bcd0b783c",
        "spectrum.hdr": "47a4aaa37f617d1162873651f11eaa1c982c3e37aa7ac6c12c889b3ccdbe959b",
        "spectrum.pgm": "411c7e655daad9eced40a1d779f738be9185c16fdda58b4c6ed60e4546ab720d",
    },
    "sweep-sparsity": {
        "manifest.txt": "30f21591e5ea40563fac9abfd7d85d59ec06c0cd6a3e0363b9b891657ca315c2",
        "plane_mae.csv": "859192d10e22c7cd1d9ed0b555d4afbd12e715194b080351e49f69f17be32698",
        "plane_mae_heatmap.pgm": "edd41c5e2336d0c87754ce63d44323c2e4d9e93a66c78df10decc52e57612046",
        "sparsity.csv": "128112e3f96a6bcb92129d5d40026b3a449c56a663984e58797d656ef05ae76e",
        "sparsity_heatmap.pgm": "7d47f7d1de40d0c325363f9bb77eadb87c7addbacb541e8591f48b02263bc680",
    },
}


# what layers prints: each layer count's image counts, one family after another
STDOUT_PINS = {
    "layers": "L=1: images parallel=52 tilted=11\nL=2: images parallel=31 tilted=6\n",
    "layers-70x33": "L=1: images parallel=70 tilted=14\nL=3: images parallel=30 tilted=6\n",
}


def _digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def run_all(tmp_path, threads, capsys):
    """Every run's artifact digests, and the stdout of the layers runs."""
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    flat = tmp_path / "flat.cfg"
    flat.write_text(FLAT)
    found, printed = {}, {}
    for name, argv in RUNS.items():
        out = tmp_path / f"{name}-t{threads}"
        capsys.readouterr()
        code = main([*argv, "--config", str(cfg), "--out", str(out), "--threads", str(threads)])
        assert code == 0, name
        found[name] = _digests(out)
        if name == "layers":
            printed[name] = capsys.readouterr().out
    layers = tmp_path / "layers-70x33.cfg"
    layers.write_text(LAYERS_70)
    out = tmp_path / f"layers-70x33-t{threads}"
    argv = ["layers", "--config", str(layers), "--out", str(out), "--threads", str(threads)]
    capsys.readouterr()
    assert main(argv) == 0
    found["layers-70x33"] = _digests(out)
    printed["layers-70x33"] = capsys.readouterr().out
    for preset in "ABC":
        out = tmp_path / f"guidelines-{preset}-t{threads}"
        assert main(["guidelines", "--scene", preset, "--out", str(out)]) == 0
        found[f"guidelines-{preset}"] = _digests(out)
    out = tmp_path / f"guidelines-flat-t{threads}"
    assert main(["guidelines", "--config", str(flat), "--out", str(out)]) == 0
    found["guidelines-flat"] = _digests(out)
    return found, printed


@pytest.mark.parametrize("threads", [1, 2])
def test_artifacts_match_pins(tmp_path, capsys, threads):
    found, printed = run_all(tmp_path, threads, capsys)
    assert found == PINS
    assert printed == STDOUT_PINS


CAPTURE_PINS = {
    "guidelines": {
        "guidelines.txt": "ac46d9e1cf1288a4b815f2f09fac2e494afe14342273081e535baa32834c075b",
        "manifest.txt": "f3f2be4e6eedca9c9718ce2f0d13b55a317f7b5afefe79cc98b01de4c26593cd",
    },
    "layers": {
        "layers_rmse_parallel.csv": "3e16c0d6b77370abd1850f5d4b9e9a323c1efb4f2562e186b39ee8cba4021b76",
        "layers_rmse_tilted.csv": "a2f5453bcb960a17b98023a18c2b6eb22df32099af2d9b8145983d78f06ba5d9",
        "manifest.txt": "072efc53e4c65743830a444b9e8fd5311eca1b09a8e126e116ba52c05c6ee06b",
        "sampling_curve.csv": "cde7c77aacc565024975bfb85079bde046fd6214f83863a2b0395490c6d9971e",
    },
    "reconstruct": {
        "manifest.txt": "a6eeb9f1e81018cdc519086dfd4e04603d161a2ceb27f042b12da96e6d0a07ca",
        "psnr.csv": "41cc7294bd0414906272fda0da54e2d986d096634044aa54636a7277898e714c",
    },
    "sweep-sparsity": {
        "manifest.txt": "e684931dfc3eb13a49d94b3482d044a9f93114547203d9297dd8c05a3d7bf3d2",
        "plane_mae.csv": "859192d10e22c7cd1d9ed0b555d4afbd12e715194b080351e49f69f17be32698",
        "plane_mae_heatmap.pgm": "edd41c5e2336d0c87754ce63d44323c2e4d9e93a66c78df10decc52e57612046",
        "sparsity.csv": "e82d432e7510ec5417c7c5ad6e7e486c10a15bd956846dc82329773df84b726b",
        "sparsity_heatmap.pgm": "2f160b67842c7efc52852d26a9c61a8f5a26984b97bb83b8e1b3a0753d127084",
    },
}


CAPTURE_STDOUT = "L=1: images parallel=53 tilted=10\nL=2: images parallel=31 tilted=5\n"


@pytest.mark.parametrize("threads", [1, 2])
def test_non_default_capture_matches_pins(tmp_path, capsys, threads):
    cfg = tmp_path / "capture.cfg"
    cfg.write_text(CAPTURE)
    found = {}
    for name in ("guidelines", "sweep-sparsity", "reconstruct", "layers"):
        out = tmp_path / name
        argv = [*RUNS[name], "--config", str(cfg), "--out", str(out), "--threads", str(threads)]
        capsys.readouterr()
        assert main(argv) == 0, name
        found[name] = _digests(out)
    assert found == CAPTURE_PINS
    assert capsys.readouterr().out == CAPTURE_STDOUT


# an untilted ramp: the plane 1.5 / 17 deg is the surface itself, so its fan
# collapses onto the omega_s = 0 line
FITTED = TINY.replace("quad = -0.15", "quad = 0.0")

FITTED_PINS = {
    "bounds.txt": "5fb6621f05f717b110c3d704a7c7b3218317f6d76b4a551c3d3823ab9816dabe",
    "manifest.txt": "92e1fc3273574d25733ed347245b1f881526e639de920727e9660e93df406a79",
    "spectrum.f64": "dc7573a89056280dbc8c01d2c6e912d4ffd40959a87395c141bda6fb8c26c729",
    "spectrum.hdr": "47a4aaa37f617d1162873651f11eaa1c982c3e37aa7ac6c12c889b3ccdbe959b",
    "spectrum.pgm": "df66997d42c6f76db98b1014ae32cf8fff868736e5a1615b06e207446d5532bf",
}


@pytest.mark.parametrize("threads", [1, 2])
def test_spectrum_under_the_fitted_plane_matches_pins(tmp_path, threads):
    cfg = tmp_path / "fitted.cfg"
    cfg.write_text(FITTED)
    out = tmp_path / "spectrum"
    argv = ["spectrum", "--config", str(cfg), "--out", str(out), "--threads", str(threads)]
    assert main(argv) == 0
    assert "slope_lo = inf\n" in (out / "bounds.txt").read_text()
    assert _digests(out) == FITTED_PINS


STUDY_C = Path(__file__).resolve().parent.parent / "studies" / "layers_C.ini"


@pytest.mark.parametrize("study", [True, False], ids=["layers_C", "capture"])
def test_guidelines_agree_with_single_layer_curve(tmp_path, capsys, study):
    # both commands take their image counts from family_fans
    cfg = tmp_path / "run.cfg"
    text = STUDY_C.read_text() if study else CAPTURE
    # the study's grid and capture, with only the single-layer cell of the tables
    text = re.sub(r"^layer_counts = .*$", "layer_counts = 1", text, flags=re.M)
    cfg.write_text(re.sub(r"^factors = .*$", "factors = 2", text, flags=re.M))
    assert main(["guidelines", "--config", str(cfg)]) == 0
    printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    out = tmp_path / "layers"
    assert main(["layers", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "sampling_curve.csv", newline="") as fh:
        single = next(row for row in csv.DictReader(fh) if row["layers"] == "1")
    for key in ("images_parallel", "images_tilted"):
        assert single[key] == printed[key], key
