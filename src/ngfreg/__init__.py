"""Matrix-free variational deformable 3D image registration.

Normalized-gradient-fields distance plus curvature regularization on
separated deformation/image grids, solved coarse-to-fine with L-BFGS.
"""

from .geometry import (
    DeformationField,
    Grid3,
    GridError,
    Image3,
    VectorField3,
    identity_field_array,
    make_identity,
    precision_dtype,
)
from .benchmark import BenchmarkRecord, format_table, run_benchmark
from .curvature import apply_laplacian, curvature_value_and_gradient
from .evaluation import (
    LandmarkSet,
    field_difference_stats,
    landmark_error,
    min_jacobian_det,
    sample_deformation,
)
from .lbfgs import lbfgs_minimize
from .multilevel import (
    MultilevelConfig,
    RegistrationReport,
    build_pyramid,
    downsample_image,
    prolong_deformation,
    register,
)
from .ngf import LevelSweep, NgfParams, distance_and_gradient
from .transfer import (
    GatherPlan,
    apply_P,
    apply_Pt,
    build_gather_plan,
    dense_P_oracle,
)
from .synthetic import (
    gaussian_bump_mapping,
    make_registration_pair,
    make_volume,
    probe_lattice,
    smooth_random_field,
    smooth_random_volume,
)
from .warp import warp_image

__version__ = "0.1.0"

__all__ = [
    "BenchmarkRecord",
    "DeformationField",
    "GatherPlan",
    "Grid3",
    "GridError",
    "Image3",
    "LandmarkSet",
    "LevelSweep",
    "MultilevelConfig",
    "NgfParams",
    "RegistrationReport",
    "VectorField3",
    "apply_P",
    "apply_Pt",
    "apply_laplacian",
    "build_gather_plan",
    "build_pyramid",
    "curvature_value_and_gradient",
    "dense_P_oracle",
    "distance_and_gradient",
    "downsample_image",
    "field_difference_stats",
    "format_table",
    "gaussian_bump_mapping",
    "identity_field_array",
    "landmark_error",
    "lbfgs_minimize",
    "make_identity",
    "make_registration_pair",
    "make_volume",
    "min_jacobian_det",
    "precision_dtype",
    "probe_lattice",
    "prolong_deformation",
    "register",
    "run_benchmark",
    "sample_deformation",
    "smooth_random_field",
    "smooth_random_volume",
    "warp_image",
]
