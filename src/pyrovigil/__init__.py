"""pyrovigil: real-time fire and flame detection for frame sequences.

Three cascaded stages: bright/foreground candidate proposal, color-texture
bag-of-words SVM classification, and temporal shape-variation verification.

The top level exports the names of the README's library example; every
other name is imported from its module (``pyrovigil.features``,
``pyrovigil.codebook``, ``pyrovigil.classifier``, ...).
"""

__version__ = "0.1.0"

from .pipeline import DetectionPipeline, PipelineConfig, train_codebook, train_model
