"""Sequence data model: CSV ingestion, run-length segments, timestamp
annotation sampling, and synthetic corpus generation.

A sensor sequence is a ``(D, T)`` float array of normalized channel
readings. Dense labels, when present, assign one class index per sample.
Timestamp annotations carry exactly one labeled sample per activity
segment. Class indices are 0-based; class 0 is the background/null class
by convention.
"""

import csv
from dataclasses import dataclass

import numpy as np


class ParseError(ValueError):
    """A CSV row could not be interpreted as numeric sample data."""


class SchemaError(ValueError):
    """The file disagrees with the declared channel count."""


class EmptyInputError(ValueError):
    """The file holds no samples."""


@dataclass
class SensorSequence:
    data: np.ndarray  # (D, T)
    sample_rate_hz: float = 1.0
    id: str = ""
    labels: "DenseLabels | None" = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2 or self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise ValueError(f"sequence data must be (D>=1, T>=1), got {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("sequence data contains non-finite values")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if self.labels is not None and len(self.labels) != self.num_samples:
            raise ValueError("dense labels length does not match sequence length")

    @property
    def num_channels(self) -> int:
        return self.data.shape[0]

    @property
    def num_samples(self) -> int:
        return self.data.shape[1]


@dataclass
class DenseLabels:
    labels: np.ndarray  # (T,) int
    num_classes: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1 or self.labels.size < 1:
            raise ValueError("labels must be a non-empty 1-D array")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError("label index out of range")

    def __len__(self) -> int:
        return self.labels.size


@dataclass(frozen=True)
class Segment:
    class_index: int
    start: int
    end: int  # inclusive

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError("segment start must be <= end")

    @property
    def length(self) -> int:
        return self.end - self.start + 1


@dataclass
class TimestampAnnotations:
    positions: np.ndarray  # (N,) int, nonnegative, strictly increasing
    classes: np.ndarray  # (N,) int, nonnegative

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.int64)
        self.classes = np.asarray(self.classes, dtype=np.int64)
        if self.positions.shape != self.classes.shape or self.positions.ndim != 1:
            raise ValueError("positions and classes must be equal-length 1-D arrays")
        if np.any(self.positions < 0) or np.any(self.classes < 0):
            raise ValueError("timestamp positions and classes must be nonnegative")
        if self.positions.size > 1 and np.any(np.diff(self.positions) <= 0):
            raise ValueError("timestamp positions must be strictly increasing")

    def __len__(self) -> int:
        return self.positions.size


@dataclass
class SyntheticSpec:
    """Piecewise-stationary Gaussian generator settings.

    Per segment the channel mean vector switches to the segment class's row
    of ``class_means``; i.i.d. noise of scale ``noise_sigma`` is added.
    ``segment_jitter`` adds a per-segment random offset to the class mean
    (within-class execution variability); 0 keeps segments of one class
    identically distributed. When ``class_means`` is None, means are drawn
    N(0, mean_scale^2) from the generation seed.
    """

    num_classes: int
    num_channels: int
    length: int
    seg_len_min: int
    seg_len_max: int
    noise_sigma: float
    class_means: np.ndarray | None = None
    mean_scale: float = 1.0
    segment_jitter: float = 0.0
    sample_rate_hz: float = 50.0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if min(self.num_channels, self.length, self.seg_len_min, self.seg_len_max) < 1:
            raise ValueError("all size fields must be positive")
        if self.seg_len_min > self.seg_len_max:
            raise ValueError("seg_len_min must be <= seg_len_max")
        if self.noise_sigma < 0 or self.segment_jitter < 0:
            raise ValueError("noise scales must be >= 0")
        if self.class_means is not None:
            self.class_means = np.asarray(self.class_means, dtype=np.float64)
            if self.class_means.shape != (self.num_classes, self.num_channels):
                raise ValueError("class_means must be (num_classes, num_channels)")


def load_sequence(path, num_channels, num_classes=None, sample_rate_hz=1.0, id=""):
    """Read one sequence from CSV: one sample per row, ``num_channels``
    numeric fields plus an optional trailing integer label column.

    A non-numeric first row is treated as a header and skipped. Dense
    labels, when present, are attached to the returned sequence;
    ``num_classes`` defaults to ``max(label) + 1``.
    """
    rows = []
    labels = []
    has_labels = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, raw in enumerate(reader, start=1):
            fields = [f.strip() for f in raw if f.strip() != ""]
            if not fields:
                continue
            if lineno == 1 and not _is_float(fields[0]):
                continue  # header
            if len(fields) == num_channels:
                row_has_label = False
            elif len(fields) == num_channels + 1:
                row_has_label = True
            else:
                raise SchemaError(
                    f"{path}: line {lineno}: expected {num_channels} channels"
                    f" (+ optional label), got {len(fields)} fields"
                )
            if has_labels is None:
                has_labels = row_has_label
            elif has_labels != row_has_label:
                raise SchemaError(f"{path}: line {lineno}: inconsistent label column")
            try:
                values = [float(f) for f in fields[:num_channels]]
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-numeric channel value")
            if not all(np.isfinite(values)):
                raise ParseError(f"{path}: line {lineno}: non-finite channel value")
            rows.append(values)
            if row_has_label:
                try:
                    labels.append(int(fields[num_channels]))
                except ValueError:
                    raise ParseError(f"{path}: line {lineno}: non-integer label")
    if not rows:
        raise EmptyInputError(f"{path}: no samples")
    data = np.asarray(rows, dtype=np.float64).T
    dense = None
    if has_labels:
        arr = np.asarray(labels, dtype=np.int64)
        c = num_classes if num_classes is not None else int(arr.max()) + 1
        dense = DenseLabels(arr, c)
    return SensorSequence(data, sample_rate_hz=sample_rate_hz, id=id, labels=dense)


def write_sequence_csv(path, sequence, labels=None):
    """Write a sequence (and optional dense labels) in load_sequence's format."""
    d, t = sequence.data.shape
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        cols = [f"ch{i}" for i in range(d)]
        if labels is not None:
            cols.append("label")
        writer.writerow(cols)
        for i in range(t):
            row = [repr(float(v)) for v in sequence.data[:, i]]
            if labels is not None:
                row.append(int(labels.labels[i]))
            writer.writerow(row)


def segments_of(labels):
    """Maximal runs of equal class, tiling [0, T)."""
    arr = labels.labels
    boundaries = np.flatnonzero(np.diff(arr)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries - 1, [arr.size - 1]))
    return [Segment(int(arr[s]), int(s), int(e)) for s, e in zip(starts, ends)]


def sample_timestamps(labels, seed):
    """Draw one annotated sample uniformly inside each segment."""
    rng = np.random.default_rng(seed)
    positions = []
    classes = []
    for seg in segments_of(labels):
        positions.append(int(rng.integers(seg.start, seg.end + 1)))
        classes.append(seg.class_index)
    return TimestampAnnotations(np.array(positions), np.array(classes))


def sequence_multilabel(annotations, num_classes):
    """(C,) 0/1 int array marking which classes occur among the annotations."""
    classes = annotations.classes
    bad = classes[classes >= num_classes]
    if bad.size:
        raise ValueError(f"class index {int(bad[0])} out of range for C={num_classes}")
    present = np.zeros(num_classes, dtype=np.int64)
    present[classes] = 1
    return present


def generate_synthetic(spec, seed):
    """Generate one (sequence, dense labels) pair from a SyntheticSpec.

    Segment classes are uniform with no immediate repeats, so consecutive
    segments always differ. Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    means = spec.class_means
    if means is None:
        means = rng.normal(0.0, spec.mean_scale, size=(spec.num_classes, spec.num_channels))
    labels = np.empty(spec.length, dtype=np.int64)
    pos = 0
    prev = -1
    bounds = []
    while pos < spec.length:
        c = int(rng.integers(0, spec.num_classes))
        while c == prev:
            c = int(rng.integers(0, spec.num_classes))
        seg_len = int(rng.integers(spec.seg_len_min, spec.seg_len_max + 1))
        seg_len = min(seg_len, spec.length - pos)
        labels[pos : pos + seg_len] = c
        bounds.append((pos, pos + seg_len))
        pos += seg_len
        prev = c
    data = means[labels].T.copy()
    if spec.segment_jitter > 0:
        for start, stop in bounds:
            offset = rng.normal(0.0, spec.segment_jitter, size=spec.num_channels)
            data[:, start:stop] += offset[:, None]
    if spec.noise_sigma > 0:
        data += rng.normal(0.0, spec.noise_sigma, size=data.shape)
    dense = DenseLabels(labels, spec.num_classes)
    seq = SensorSequence(data, sample_rate_hz=spec.sample_rate_hz, labels=dense)
    return seq, dense


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True
