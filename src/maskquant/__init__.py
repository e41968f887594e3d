"""Masked-calibration multi-binary weight quantization toolkit."""

from .abmp import BitAllocation, GroupPartition, allocate, partition
from .container import read_tensor, write_tensor
from .daq import (
    DaqConfig,
    QuantizedGroup,
    RCBinaryOrder,
    daq_fit,
    update_alpha_c,
    update_alpha_r,
    update_signs,
)
from .denoiser import (
    ToyModel,
    ToyModelSpec,
    eval_divergence,
    forward,
    init_model,
    load_model,
    save_model,
)
from .errors import ConfigError, ContainerError, ShapeError
from .mcs import (
    MaskedSequence,
    McsConfig,
    sample_mask,
    simulate,
    visibility_schedule,
)
from .pipeline import (
    PipelineConfig,
    ablation_grid,
    cmd_calib,
    cmd_estimate_mem,
    cmd_eval,
    cmd_quantize,
    load_config,
)
from .qformat import (
    LayerShape,
    QpkLayer,
    dequantize,
    memory_estimate,
    pack_signs,
    rc_matvec,
    read_qpk,
    unpack_signs,
    write_qpk,
)
from .rng import Rng
from .stats import (
    SecondMoment,
    block_scores,
    build_importance_mask,
    damped_inverse_diag,
    importance_matrix,
    proxy_loss,
    true_data_loss,
)

__version__ = "0.1.0"
