"""Per-class prototype embeddings: CAM-weighted top-K estimates folded
into a momentum-updated global bank.

Embeddings are expected L2-normalized per sample, so prototype rows are
convex combinations with norm <= 1 and dot products against unit vectors
are cosine similarities in [-1, 1]. Rows stay excluded from contrast and
transport until their first update.
"""

from dataclasses import dataclass, field

import numpy as np

from .seqdata import index_array

MOMENTUM = 0.9  # the weight of a fresh estimate in training's bank update


@dataclass
class PrototypeBank:
    num_classes: int
    dim: int
    p: np.ndarray = field(init=False)
    initialized: np.ndarray = field(init=False)

    def __post_init__(self):
        self.p = np.zeros((self.num_classes, self.dim))
        self.initialized = np.zeros(self.num_classes, dtype=bool)


def estimate_prototype(v, cam_row, mask, k):
    """CAM-weighted mean of the top-K most confident masked samples.

    ``v`` is (dim, T), ``cam_row`` the class's (T,) confidence row, ``mask``
    the sample indices currently assigned to the class. Returns None when
    the mask is empty or every selected confidence is zero.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    mask = index_array(mask, "mask")
    if mask.size == 0:
        return None
    weights = np.asarray(cam_row)[mask]
    if mask.size > k:
        # stable top-k: highest confidence first, earlier samples win ties
        order = np.argsort(-weights, kind="stable")[:k]
        mask = mask[order]
        weights = weights[order]
    total = weights.sum()
    if total <= 0.0:
        return None
    return (v[:, mask] * weights[None, :]).sum(axis=1) / total


def update_bank(bank, class_index, new_prototype):
    """Momentum-fold a fresh estimate into the bank at weight ``MOMENTUM``;
    the first update sets the row."""
    if class_index >= bank.num_classes:
        raise ValueError(f"class index {class_index} out of range")
    new_prototype = np.asarray(new_prototype, dtype=np.float64)
    if bank.initialized[class_index]:
        bank.p[class_index] = (
            MOMENTUM * new_prototype + (1.0 - MOMENTUM) * bank.p[class_index]
        )
    else:
        bank.p[class_index] = new_prototype
        bank.initialized[class_index] = True
    return bank
