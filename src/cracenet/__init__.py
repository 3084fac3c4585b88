"""Unified RGB / RGB-D salient object detection at desk scale.

A self-contained NumPy stack: reverse-mode autodiff tensors, a small CNN
layer vocabulary, cross-attention context extraction fusion modules, an
FPN-like detector with boundary-aware multi-level supervision, the full
saliency evaluation suite, and a deterministic SGD trainer.
"""

from .tensor import Tensor, backward, concat_channels, no_grad, relu, sigmoid, zero_grads
from .layers import (
    BatchNormLayer,
    Conv2dLayer,
    ConvBnRelu,
    conv2d,
    downsample_avg,
    erode,
    upsample,
)
from .crace import CraceConfig, CraceModule
from .network import EncoderConfig, NetworkConfig, SodNetwork
from .losses import (
    LossConfig,
    bce_loss,
    iou_loss,
    make_edge_gt,
    multilevel_edge_loss,
    multilevel_saliency_loss,
    total_loss,
    total_loss_rgb,
    total_loss_rgbd,
)
from .metrics import (
    MetricReport,
    e_measure,
    evaluate_dataset,
    evaluate_pairs,
    f_beta,
    mae,
    max_f,
    mean_f,
    pr_curve,
    s_measure,
    weighted_f,
)
from .data import Sample, gen_synthetic, load_checkpoint, load_dataset, save_checkpoint
from .trainer import TrainConfig, TrainResult, augment, evaluate_model, run_ablation, sgd_step, train

__version__ = "0.1.0"
