"""Data model, CSV ingestion, segment extraction and synthetic generation."""

import numpy as np
import pytest

from wsseg.seqdata import (
    DenseLabels,
    EmptyInputError,
    ParseError,
    SchemaError,
    SensorSequence,
    SyntheticSpec,
    TimestampAnnotations,
    generate_synthetic,
    load_sequence,
    sample_timestamps,
    segments_of,
    sequence_multilabel,
    write_sequence_csv,
)


def test_load_sequence_shapes(tmp_path):
    path = tmp_path / "seq.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n7.0,8.0\n")
    seq = load_sequence(path, 2)
    assert seq.num_channels == 2 and seq.num_samples == 4
    assert seq.labels is None


def test_load_sequence_header_and_labels(tmp_path):
    path = tmp_path / "seq.csv"
    path.write_text("ch0,ch1,label\n1.0,2.0,0\n3.0,4.0,2\n")
    seq = load_sequence(path, 2)
    assert seq.labels is not None
    assert seq.labels.num_classes == 3
    np.testing.assert_array_equal(seq.labels.labels, [0, 2])


def test_load_sequence_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(EmptyInputError):
        load_sequence(path, 2)


def test_load_sequence_nan_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\nnan,4.0\n")
    with pytest.raises(ParseError, match="line 2"):
        load_sequence(path, 2)


def test_load_sequence_schema_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0,3.0,4.0\n")
    with pytest.raises(SchemaError):
        load_sequence(path, 2)


def test_csv_round_trip(tmp_path, rng):
    data = rng.standard_normal((3, 7))
    labels = DenseLabels(rng.integers(0, 4, size=7), 4)
    seq = SensorSequence(data, sample_rate_hz=10.0)
    path = tmp_path / "rt.csv"
    write_sequence_csv(path, seq, labels)
    back = load_sequence(path, 3, num_classes=4, sample_rate_hz=10.0)
    np.testing.assert_array_equal(back.data, data)
    np.testing.assert_array_equal(back.labels.labels, labels.labels)


@pytest.mark.parametrize(
    "labels,expected",
    [
        ([0, 0, 1], [(0, 0, 1), (1, 2, 2)]),
        ([0, 0, 0], [(0, 0, 2)]),
        ([0, 1, 0], [(0, 0, 0), (1, 1, 1), (0, 2, 2)]),
    ],
)
def test_segments_of_runs(labels, expected):
    segs = segments_of(DenseLabels(np.array(labels), 2))
    assert [(s.class_index, s.start, s.end) for s in segs] == expected


def test_segments_reconstruct_labels(rng):
    for _ in range(50):
        labels = DenseLabels(rng.integers(0, 3, size=rng.integers(1, 40)), 3)
        rebuilt = np.concatenate(
            [[s.class_index] * s.length for s in segments_of(labels)]
        )
        np.testing.assert_array_equal(rebuilt, labels.labels)


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
        assert len(ann) == len(segments_of(labels)) <= len(labels)
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


def test_generate_synthetic_zero_noise_piecewise_constant():
    seq, labels = generate_synthetic(_spec(noise_sigma=0.0), 5)
    for seg in segments_of(labels):
        block = seq.data[:, seg.start : seg.end + 1]
        np.testing.assert_array_equal(block, np.repeat(block[:, :1], seg.length, axis=1))


def test_generate_synthetic_deterministic():
    a_seq, a_lab = generate_synthetic(_spec(), 9)
    b_seq, b_lab = generate_synthetic(_spec(), 9)
    np.testing.assert_array_equal(a_seq.data, b_seq.data)
    np.testing.assert_array_equal(a_lab.labels, b_lab.labels)


def test_generate_synthetic_constant_segment_length():
    _, labels = generate_synthetic(_spec(seg_len_min=7, seg_len_max=7, length=40), 3)
    lengths = [s.length for s in segments_of(labels)]
    assert lengths[:-1] == [7] * (len(lengths) - 1)
    assert lengths[-1] <= 7


def test_generate_synthetic_consecutive_segments_differ():
    _, labels = generate_synthetic(_spec(length=200), 11)
    segs = segments_of(labels)
    assert all(a.class_index != b.class_index for a, b in zip(segs, segs[1:]))
