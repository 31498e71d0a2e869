"""pyrovigil: real-time fire and flame detection for frame sequences.

Three cascaded stages: bright/foreground candidate proposal, color-texture
bag-of-words SVM classification, and temporal shape-variation verification.
"""

__version__ = "0.1.0"

from .imaging import ColorSpace, Frame, IntegralImage, convert, integral, rect_sum
from .features import (
    SamplingPlan,
    global_histogram,
    local_color_histogram,
    sample,
    surf_descriptor,
)
from .codebook import (
    Codebook,
    EncoderParams,
    NNIndex,
    encode,
    kmeans,
    read_codebook,
    soft_assign,
    write_codebook,
)
from .classifier import (
    CVReport,
    Kernel,
    KernelKind,
    TrainedModel,
    cross_validate,
    kernel_eval,
    predict,
    read_model,
    train,
    write_model,
)
from .proposal import (
    BackgroundModel,
    Blob,
    CandidateMask,
    ProposalConfig,
    ProposalEngine,
    extract_blobs,
    multi_level_threshold,
)
from .temporal import (
    BlobTrack,
    Stability,
    StabilityThresholds,
    Tracker,
    TrackState,
    spatial_distribution,
)
from .pipeline import (
    AlarmEvent,
    DetectionPipeline,
    EvalReport,
    PipelineConfig,
    SectionLabel,
    evaluate,
    evaluate_sections,
    train_codebook,
    train_model,
)
