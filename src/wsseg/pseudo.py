"""Hybrid hard/soft pseudo-labels from a transport plan and timestamp
annotations.

Between two timestamps the class can only be one of the two flanking
classes. The plan decides how many samples lean each way; a scale
parameter converts those counts into hard one-hot regions at both ends,
and the middle keeps the plan's two-class soft distribution. Before the
first and after the last timestamp the nearest timestamp's class is used.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class PseudoLabels:
    y: np.ndarray  # (C, T) per-sample class distributions, columns sum to 1
    hard_mask: np.ndarray  # (T,) True where the column is a hard one-hot


def generate(q, annotations, eps_hard):
    """Build pseudo-labels for a full sequence.

    ``q`` is the (T, C) transport plan read as per-sample class scores
    (columns of absent classes may be zero). Per interval (t_n, t_{n+1})
    the first floor(eps_hard * N_a) interior samples are hard a, the last
    floor(eps_hard * N_b) hard b, the rest soft. Region cuts use floors,
    so the hard set grows monotonically with eps_hard.
    """
    if not 0.0 <= eps_hard <= 1.0:
        raise ValueError("eps_hard must lie in [0, 1]")
    q = np.asarray(q, dtype=np.float64)
    t_len, c = q.shape
    positions = annotations.positions
    classes = annotations.classes
    if positions.size == 0:
        raise ValueError("annotations must contain at least one timestamp")
    if positions[0] < 0 or positions[-1] >= t_len:
        raise ValueError("timestamp positions outside the sequence")

    y = np.zeros((c, t_len))
    hard = np.zeros(t_len, dtype=bool)

    first, last = int(positions[0]), int(positions[-1])
    y[int(classes[0]), : first + 1] = 1.0
    hard[: first + 1] = True
    y[int(classes[-1]), last:] = 1.0
    hard[last:] = True

    for n in range(positions.size - 1):
        t_n, t_next = int(positions[n]), int(positions[n + 1])
        a, b = int(classes[n]), int(classes[n + 1])
        y[a, t_n] = 1.0
        hard[t_n] = True
        interior = t_next - t_n - 1
        if interior <= 0:
            continue
        if a == b:
            y[a, t_n + 1 : t_next] = 1.0
            hard[t_n + 1 : t_next] = True
            continue
        # the two-class restricted argmax; ties go to the earlier class a
        n_a = np.count_nonzero(q[t_n + 1 : t_next, a] >= q[t_n + 1 : t_next, b])
        n_b = interior - n_a
        # eps_hard <= 1, so the hard ends never overlap
        soft_lo = t_n + 1 + int(np.floor(eps_hard * n_a))
        soft_hi = t_next - int(np.floor(eps_hard * n_b))
        y[a, t_n + 1 : soft_lo] = 1.0
        y[b, soft_hi:t_next] = 1.0
        hard[t_n + 1 : soft_lo] = True
        hard[soft_hi:t_next] = True
        # the plan's two-class distribution; (0.5, 0.5) where both vanish
        qa, qb = q[soft_lo:soft_hi, a], q[soft_lo:soft_hi, b]
        total = qa + qb
        vanish = total <= 0.0
        total[vanish] = 1.0
        y[a, soft_lo:soft_hi] = np.where(vanish, 0.5, qa / total)
        y[b, soft_lo:soft_hi] = np.where(vanish, 0.5, qb / total)
    return PseudoLabels(y=y, hard_mask=hard)
