"""Timestamp-supervised activity segmentation and recognition.

A multi-stage temporal convolutional network trained from one labeled
sample per activity segment, with CAM-derived prototypes, sample-to-
prototype contrast, and order-preserving optimal transport pseudo-labels.
"""

from .losses import LossWeights
from .metrics import EvalReport, evaluate_many
from .net import TcnConfig, NetworkOutputs, forward, init_params
from .otrans import TransportPlan, TransportProblem, sinkhorn, solve_order_preserving
from .proto import PrototypeBank
from .seqdata import (
    DenseLabels,
    LabeledSequence,
    SensorSequence,
    SyntheticSpec,
    TimestampAnnotations,
    generate_synthetic,
    load_sequence,
    sample_timestamps,
    segments_of,
)
from .trainer import TrainConfig, TrainState, evaluate, train

__version__ = "0.1.0"
