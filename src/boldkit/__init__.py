"""boldkit: task-based BOLD fMRI analysis toolkit.

Design-matrix construction, preprocessing, voxel-wise GLM, FDR
inference, cluster reporting, scan-duration studies, and a synthetic
low-field BOLD phantom generator, with a file-based CLI on top.
"""

__version__ = "0.1.0"

from .duration import (
    RunSet,
    average_runs,
    concatenate_runs,
    local_standard_deviation,
    non_target_rois,
    peak_correlation,
    total_variation,
)
from .glm import GlmFit, StatMaps, correlation_from_fit, correlation_map, fit_glm, t_contrast
from .inference import Cluster, FdrResult, cluster_table, extract_clusters, fdr_bh
from .phantom import AcquisitionParams, PhantomSpec, field_snr_scale, generate_phantom
from .preprocess import (
    RigidMotion,
    SliceOrder,
    apply_motion,
    estimate_motion,
    gaussian_smooth,
    highpass_filter,
    slice_timing_correct,
)
from .task_design import (
    BlockDesign,
    DesignMatrix,
    HrfParams,
    boxcar,
    build_design_matrix,
    canonical_hrf,
    convolve_regressor,
    dct_highpass_basis,
)
from .volume_io import (
    Volume4D,
    VolumeHeader,
    extract_roi_series,
    make_volume,
    read_nifti,
    write_nifti,
)
