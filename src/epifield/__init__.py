"""Light-field EPI sampling analysis with a tiltable global image plane."""

import os

# Before numpy loads: the sweep workers are epifield's only threads, and the one
# BLAS call (np.polyfit's 256 x 2 layer fit) is too small for OpenBLAS to thread.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # an exported value wins

from .scene import (
    DEFAULT_OMEGAS,
    SceneDef,
    SceneGeometryError,
    SurfaceSpec,
    TextureSpec,
    fitted_line,
    partition_depth_layers,
)
from .mapping import (
    DEFAULT_U_MAX,
    PlaneParam,
    SelfOcclusionError,
    check_no_self_occlusion,
    intersect_rays,
    map_surface_to_image,
    rewarp_coords,
    u_infinity,
)
from .render import (
    Epi,
    NonDivisibleFactor,
    interp_u,
    psnr,
    reconstruct_epi,
    render_epi,
    subsample_epi,
)
from .spectral import (
    ChirpParams,
    FanBounds,
    OptimalDepths,
    SpectrumGrid,
    camera_axis_chirp,
    dft2_magnitude,
    family_fans,
    min_image_count,
    optimal_depths,
    out_of_bound_energy,
    plane_fan,
    sampling_guidelines,
    sparsity_rmse,
    u_nyquist,
)
from .experiments import (
    LayersResult,
    SweepResult,
    layers_experiment,
    plane_mae,
    sweep_plane_mae,
    sweep_reconstruction,
    sweep_sparsity,
)
from .config import (
    ConfigError,
    LayersSpec,
    RunConfig,
    SweepSpec,
    load_config,
    load_preset,
)

__version__ = "0.1.0"
