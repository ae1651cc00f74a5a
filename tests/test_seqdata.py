"""Data model, CSV ingestion, segment extraction and synthetic generation."""

import re

import numpy as np
import pytest

from wsseg.seqdata import (
    DenseLabels,
    LabeledSequence,
    SensorSequence,
    SyntheticSpec,
    TimestampAnnotations,
    generate_synthetic,
    index_array,
    load_sequence,
    sample_timestamps,
    segments_of,
    sequence_multilabel,
    write_sequence_csv,
)


def test_load_sequence_shapes(tmp_path):
    path = tmp_path / "seq.csv"
    path.write_text("1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,1\n7.0,8.0,0\n")
    item = load_sequence(path, 2, 3, id="seq")
    assert item.sequence.data.shape == (2, 4) and item.sequence.num_samples == 4
    assert item.sequence.id == "seq"
    np.testing.assert_array_equal(item.sequence.data[:, 1], [3.0, 4.0])
    np.testing.assert_array_equal(item.labels.labels, [0, 1, 1, 0])


def test_load_sequence_header_and_labels(tmp_path):
    path = tmp_path / "seq.csv"
    path.write_text("ch0,ch1,label\n1.0,2.0,0\n3.0,4.0,2\n")
    item = load_sequence(path, 2, 4)
    assert item.labels.num_classes == 4  # the argument, not max(label) + 1
    np.testing.assert_array_equal(item.labels.labels, [0, 2])


def test_load_sequence_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match=re.escape(f"{path}: no samples")):
        load_sequence(path, 2, 3)


def test_load_sequence_nan_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0,0\nnan,4.0,1\n")
    with pytest.raises(ValueError, match="line 2: non-finite channel value"):
        load_sequence(path, 2, 3)


def test_load_sequence_schema_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0,3.0,4.0\n")
    with pytest.raises(ValueError, match="line 1: expected 2 channels and a label, got 4 fields"):
        load_sequence(path, 2, 3)


@pytest.mark.parametrize("text", ["ch0,ch1,label\n1.0,2.0,0\n3.0,4.0\n",
                                  "1.0,2.0\n3.0,4.0\n5.0,6.0\n"])
def test_load_sequence_row_without_label_names_line(tmp_path, text):
    path = tmp_path / "unlabelled.csv"
    path.write_text(text)
    line = 3 if text.startswith("ch0") else 1
    with pytest.raises(ValueError, match=re.escape(f"{path}: line {line}: ") + ".*label"):
        load_sequence(path, 2, 3)


@pytest.mark.parametrize("row, error", [
    ("0.5,,0.7,1", "expected 2 channels and a label, got 4 fields"),
    ("0.5,,1", "non-numeric channel value"),
    (",0.5,1", "non-numeric channel value"),
    ("0.5,0.7,", "non-integer label"),
    ("0.5,0.7,3", "label 3 not in [0, 3)"),
    ("0.5,0.7,-1", "label -1 not in [0, 3)"),
])
def test_load_sequence_empty_cell_names_line(tmp_path, row, error):
    """Every cell counts: an empty one or a label out of range is an error,
    and only a row of empty cells is skipped."""
    path = tmp_path / "holes.csv"
    path.write_text(f"1.0,2.0,0\n,,\n\n{row}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 4: {error}")):
        load_sequence(path, 2, 3)
    path.write_text("1.0,2.0,0\n,,\n\n3.0,4.0,1\n")
    np.testing.assert_array_equal(load_sequence(path, 2, 3).labels.labels, [0, 1])


def test_csv_round_trip(tmp_path, rng):
    data = rng.standard_normal((3, 7))
    item = LabeledSequence(SensorSequence(data), DenseLabels(rng.integers(0, 4, size=7), 4))
    path = tmp_path / "rt.csv"
    write_sequence_csv(path, item)
    back = load_sequence(path, 3, 4)
    np.testing.assert_array_equal(back.sequence.data, data)
    np.testing.assert_array_equal(back.labels.labels, item.labels.labels)
    assert back.labels.num_classes == 4
    write_sequence_csv(tmp_path / "again.csv", back)
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("count", [150, 199, 201, 260])
def test_labeled_sequence_needs_one_label_per_sample(rng, count):
    sequence = SensorSequence(rng.standard_normal((2, 200)))
    with pytest.raises(ValueError, match=f"{count} labels for a sequence of 200 samples"):
        LabeledSequence(sequence, DenseLabels(np.zeros(count, dtype=int), 3))


@pytest.mark.parametrize(
    "labels,expected",
    [
        ([0, 0, 1], [(0, 0, 1), (1, 2, 2)]),
        ([0, 0, 0], [(0, 0, 2)]),
        ([0, 1, 0], [(0, 0, 0), (1, 1, 1), (0, 2, 2)]),
    ],
)
def test_segments_of_runs(labels, expected):
    runs = segments_of(np.array(labels))
    assert all(a.dtype == np.int64 for a in runs)
    # expected holds inclusive ends
    assert [(c, start, stop - 1) for c, start, stop in zip(*runs)] == expected


def test_segments_reconstruct_labels(rng):
    for _ in range(50):
        labels = rng.integers(0, 3, size=rng.integers(1, 40))
        classes, starts, stops = segments_of(labels)
        np.testing.assert_array_equal(np.repeat(classes, stops - starts), labels)


def test_segments_of_tile_the_sequence(rng):
    for _ in range(200):
        t_len = int(rng.integers(1, 61))
        labels = rng.integers(0, rng.integers(1, 5), size=t_len)
        classes, starts, stops = segments_of(labels)
        assert starts[0] == 0 and stops[-1] == t_len
        np.testing.assert_array_equal(starts[1:], stops[:-1])
        assert np.all(stops > starts)
        np.testing.assert_array_equal(labels[starts], classes)
        assert np.all(classes[1:] != classes[:-1])


def test_sample_timestamps_containment():
    labels = DenseLabels(np.array([0, 0, 1, 1]), 2)
    ann = sample_timestamps(labels, 7)
    assert len(ann) == 2
    assert ann.positions[0] in (0, 1) and ann.positions[1] in (2, 3)
    np.testing.assert_array_equal(ann.classes, [0, 1])


def test_sample_timestamps_single_segment():
    ann = sample_timestamps(DenseLabels(np.zeros(5, dtype=int), 1), 0)
    assert len(ann) == 1


def test_sample_timestamps_deterministic(rng):
    labels = DenseLabels(rng.integers(0, 4, size=200), 4)
    a = sample_timestamps(labels, 42)
    b = sample_timestamps(labels, 42)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.classes, b.classes)


def test_sample_timestamps_class_consistency(rng):
    for seed in range(20):
        labels = DenseLabels(rng.integers(0, 3, size=60), 3)
        ann = sample_timestamps(labels, seed)
        assert len(ann) == len(segments_of(labels.labels)[0]) <= len(labels)
        np.testing.assert_array_equal(labels.labels[ann.positions], ann.classes)


def test_sequence_multilabel_bits():
    ann = TimestampAnnotations(np.array([1, 5]), np.array([0, 2]))
    ml = sequence_multilabel(ann, 4)
    np.testing.assert_array_equal(ml, [1, 0, 1, 0])
    assert ml.dtype == np.int64


def test_sequence_multilabel_empty_and_duplicates():
    empty = TimestampAnnotations(np.array([], dtype=int), np.array([], dtype=int))
    np.testing.assert_array_equal(sequence_multilabel(empty, 3), [0, 0, 0])
    dup = TimestampAnnotations(np.array([0, 3]), np.array([1, 1]))
    np.testing.assert_array_equal(sequence_multilabel(dup, 3), [0, 1, 0])


def test_sequence_multilabel_range_error():
    ann = TimestampAnnotations(np.array([0]), np.array([5]))
    with pytest.raises(ValueError, match="out of range"):
        sequence_multilabel(ann, 3)


def test_empty_indices_pass_at_any_dtype():
    ann = TimestampAnnotations([], [])
    assert len(ann) == 0 and ann.positions.dtype == ann.classes.dtype == np.int64
    assert index_array(np.zeros((0, 3)), "x").dtype == np.int64


def test_annotations_reject_negative_positions_and_classes():
    for positions, classes in (([0, 4], [-1, 1]), ([-2, 4], [0, 1]), ([-1], [0])):
        with pytest.raises(ValueError, match="nonnegative"):
            TimestampAnnotations(np.array(positions), np.array(classes))


def _spec(**kw):
    base = dict(
        num_classes=3, num_channels=2, length=60, seg_len_min=5, seg_len_max=12, noise_sigma=0.1
    )
    base.update(kw)
    return SyntheticSpec(**base)


@pytest.mark.parametrize("name, value", [
    ("length", 2.5), ("length", True), ("num_classes", 3.0), ("seg_len_max", "12"),
    ("noise_sigma", True), ("segment_jitter", False),
])
def test_spec_rejects_a_value_of_the_wrong_type(name, value):
    with pytest.raises(ValueError, match=name):
        _spec(**{name: value})


def test_generate_synthetic_zero_noise_piecewise_constant():
    seq, labels = generate_synthetic(_spec(noise_sigma=0.0), 5)
    for _, start, stop in zip(*segments_of(labels.labels)):
        block = seq.data[:, start:stop]
        np.testing.assert_array_equal(block, np.repeat(block[:, :1], stop - start, axis=1))


def test_generate_synthetic_jitter_is_constant_within_each_run():
    seq, labels = generate_synthetic(_spec(noise_sigma=0.0, segment_jitter=0.7, length=200), 5)
    classes, starts, stops = segments_of(labels.labels)
    for start, stop in zip(starts, stops):
        block = seq.data[:, start:stop]
        np.testing.assert_array_equal(block, np.repeat(block[:, :1], stop - start, axis=1))
    # each run draws its own offset, so no two runs of one class share a level
    levels = seq.data[:, starts]
    for c in np.unique(classes):
        runs = levels[:, classes == c]
        assert np.unique(runs, axis=1).shape[1] == runs.shape[1]


def test_generate_synthetic_deterministic():
    a_seq, a_lab = generate_synthetic(_spec(), 9)
    b_seq, b_lab = generate_synthetic(_spec(), 9)
    np.testing.assert_array_equal(a_seq.data, b_seq.data)
    np.testing.assert_array_equal(a_lab.labels, b_lab.labels)


def test_generate_synthetic_constant_segment_length():
    _, labels = generate_synthetic(_spec(seg_len_min=7, seg_len_max=7, length=40), 3)
    _, starts, stops = segments_of(labels.labels)
    lengths = (stops - starts).tolist()
    assert lengths[:-1] == [7] * (len(lengths) - 1)
    assert lengths[-1] <= 7


def test_generate_synthetic_consecutive_segments_differ():
    _, labels = generate_synthetic(_spec(length=200), 11)
    classes = segments_of(labels.labels)[0]
    assert np.all(classes[1:] != classes[:-1])


SPEC = dict(num_classes=3, num_channels=2, length=60, seg_len_min=5, seg_len_max=12,
            noise_sigma=0.1)


@pytest.mark.parametrize("build, message", [
    (lambda: SensorSequence(np.zeros(5)), "sequence data must be (D>=1, T>=1), got (5,)"),
    (lambda: SensorSequence(np.zeros((0, 5))), "sequence data must be (D>=1, T>=1), got (0, 5)"),
    (lambda: SensorSequence(np.array([[0.0, np.nan]])), "sequence data contains non-finite values"),
    (lambda: DenseLabels(np.zeros(0), 2), "labels must be a non-empty 1-D array"),
    (lambda: DenseLabels(np.zeros(3), 0), "num_classes must be >= 1"),
    (lambda: DenseLabels(np.array([0, 2]), 2), "label index out of range"),
    (lambda: DenseLabels(np.array([0.7, 1.9]), 2),
     "labels must be integer indices, got dtype float64"),
    (lambda: DenseLabels(np.array([True, False]), 2),
     "labels must be integer indices, got dtype bool"),
    (lambda: TimestampAnnotations([1.6, 3.2], [0.5, 1.9]),
     "positions must be integer indices, got dtype float64"),
    (lambda: TimestampAnnotations([1, 3], [0.0, 1.0]),
     "classes must be integer indices, got dtype float64"),
    (lambda: segments_of(np.array([0.2, 0.2, 1.7])),
     "labels must be integer indices, got dtype float64"),
    (lambda: TimestampAnnotations(np.array([1, 2]), np.array([0])),
     "positions and classes must be equal-length 1-D arrays"),
    (lambda: TimestampAnnotations(np.array([4, 4]), np.array([0, 1])),
     "timestamp positions must be strictly increasing"),
    (lambda: SyntheticSpec(**dict(SPEC, num_classes=1)), "need at least two classes"),
    (lambda: SyntheticSpec(**dict(SPEC, length=0)), "all size fields must be positive"),
    (lambda: SyntheticSpec(**dict(SPEC, seg_len_min=13)), "seg_len_min must be <= seg_len_max"),
    (lambda: SyntheticSpec(**dict(SPEC, segment_jitter=-0.1)), "noise scales must be >= 0"),
    (lambda: SyntheticSpec(**dict(SPEC, class_means=np.zeros((2, 3)))),
     "class_means must be (num_classes, num_channels)"),
], ids=["vector", "no-channels", "nan", "no-labels", "no-classes", "label-range", "float-labels",
        "bool-labels", "float-positions", "float-classes", "float-runs", "ann-lengths", "ann-order",
        "one-class", "length", "seg-lengths", "jitter", "class-means"])
def test_data_model_refusals(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
