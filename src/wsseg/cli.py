"""Command-line entry point.

Subcommands: synth (dataset generation), train, eval, pseudo (transport
plan and pseudo-label dumps), cams (class-activation dumps), report
(aggregate table across runs). Configuration is a JSON file; see the
README for the schema. Errors exit with a distinct code per class and a
single machine-parsable line on stderr.
"""

import argparse
import csv
import json
import os
import sys
import zipfile

import numpy as np

from . import net as net_mod
from . import trainer as trainer_mod
from .cam import compute_cams
from .metrics import evaluate_many
from .seqdata import (
    SyntheticSpec,
    generate_synthetic,
    load_sequence,
    write_sequence_csv,
)
from .trainer import LabeledSequence, TrainConfig, load_checkpoint, save_checkpoint
from .viz import segmentation_ribbon_svg

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_MISSING = 4
EXIT_DATA = 5


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line errors, distinct exit code
        raise CliError(EXIT_USAGE, message)


def build_parser():
    parser = _Parser(prog="wsseg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("synth", parents=[], help="generate a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a data split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("pseudo", help="dump transport plans and pseudo-labels")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("cams", help="dump class activation maps as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="aggregate eval reports across runs")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise CliError(EXIT_USAGE, "a subcommand is required (see --help)")
        handler = {
            "synth": cmd_synth,
            "train": cmd_train,
            "eval": cmd_eval,
            "pseudo": cmd_pseudo,
            "cams": cmd_cams,
            "report": cmd_report,
        }[args.command]
        handler(args)
        return EXIT_OK
    except SystemExit as exc:  # --help lands here with code 0
        return int(exc.code or 0)
    except CliError as exc:
        print(f"wsseg: error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:  # pragma: no cover - defensive
        print(f"wsseg: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _load_json(path):
    if not os.path.exists(path):
        raise CliError(EXIT_MISSING, f"config file not found: {path}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_CONFIG, f"invalid JSON in {path}: {exc}")


def _require(path, what):
    if not os.path.exists(path):
        raise CliError(EXIT_MISSING, f"{what} not found: {path}")
    return path


def cmd_synth(args):
    config = _load_json(args.config)
    try:
        synth = dict(config["synth"])
    except KeyError:
        raise CliError(EXIT_CONFIG, f"{args.config}: missing 'synth' section")
    seed = args.seed if args.seed is not None else synth.pop("seed", 0)
    counts = {split: synth.pop(f"n_{split}", 0) for split in ("train", "val", "test")}
    try:
        spec = SyntheticSpec(**synth)
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_CONFIG, f"invalid synth spec: {exc}")

    os.makedirs(args.out, exist_ok=True)
    root = np.random.SeedSequence(seed)
    means_rng = np.random.default_rng(root.spawn(1)[0])
    if spec.class_means is None:
        spec.class_means = means_rng.normal(
            0.0, spec.mean_scale, size=(spec.num_classes, spec.num_channels)
        )
    index = 0
    for split, count in counts.items():
        split_dir = os.path.join(args.out, split)
        os.makedirs(split_dir, exist_ok=True)
        for i in range(count):
            seq, labels = generate_synthetic(spec, np.random.SeedSequence([seed, index]))
            write_sequence_csv(os.path.join(split_dir, f"seq_{i:03d}.csv"), seq, labels)
            index += 1
    meta = {
        "num_classes": spec.num_classes,
        "num_channels": spec.num_channels,
        "sample_rate_hz": spec.sample_rate_hz,
        "seed": seed,
        "splits": counts,
    }
    with open(os.path.join(args.out, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
    print(f"wrote dataset to {args.out}")


def load_split(data_dir, split=None):
    """Load every sequence CSV of a dataset directory (or one split)."""
    meta_path = _require(os.path.join(data_dir, "meta.json"), "dataset meta")
    with open(meta_path) as fh:
        meta = json.load(fh)
    split_dir = os.path.join(data_dir, split) if split else data_dir
    _require(split_dir, "data split")
    items = []
    for name in sorted(os.listdir(split_dir)):
        if not name.endswith(".csv"):
            continue
        seq = load_sequence(
            os.path.join(split_dir, name),
            meta["num_channels"],
            num_classes=meta["num_classes"],
            sample_rate_hz=meta.get("sample_rate_hz", 1.0),
            id=name[: -len(".csv")],
        )
        if seq.labels is None:
            raise CliError(EXIT_DATA, f"{name}: dense labels required")
        items.append(LabeledSequence(sequence=seq, labels=seq.labels))
    if not items:
        raise CliError(EXIT_DATA, f"no sequence CSVs under {split_dir}")
    return items, meta


def _split_dir_of(data_path):
    """Accept either a dataset root (with meta.json) or a split subdirectory."""
    if os.path.exists(os.path.join(data_path, "meta.json")):
        return data_path, None
    parent = os.path.dirname(data_path.rstrip(os.sep))
    if os.path.exists(os.path.join(parent, "meta.json")):
        return parent, os.path.basename(data_path.rstrip(os.sep))
    raise CliError(EXIT_MISSING, f"no meta.json found at or above {data_path}")


def _check_shape(meta, net, code):
    """Exit with ``code`` unless the dataset's channel and class counts
    (from its meta.json) are the network's ``in_dim`` and ``num_classes``."""
    for key, expected in (("num_channels", net.in_dim), ("num_classes", net.num_classes)):
        if meta[key] != expected:
            raise CliError(code, f"dataset {key} is {meta[key]}, the network expects {expected}")


def cmd_train(args):
    config_dict = _load_json(args.config)
    try:
        section = dict(config_dict["train"])
        if args.seed is not None:
            section["seed"] = args.seed
        config = TrainConfig.from_dict(section)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(EXIT_CONFIG, f"invalid train config: {exc}")
    _require(args.data, "data directory")
    train_set, meta = load_split(args.data, "train")
    _check_shape(meta, config.net, EXIT_CONFIG)
    val_set, _ = load_split(args.data, "val")
    os.makedirs(args.out, exist_ok=True)
    state, logs = trainer_mod.train(train_set, val_set, config, diag_dir=args.out)
    save_checkpoint(state, os.path.join(args.out, "checkpoint.npz"))
    write_log_csv(os.path.join(args.out, "train_log.csv"), logs)
    print(f"trained {state.epoch} epochs; best val F_m {state.best_f_m:.4f}"
          f" at epoch {state.best_epoch}")


def write_log_csv(path, logs):
    if not logs:
        return
    keys = list(logs[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(keys)
        for record in logs:
            writer.writerow([_fmt(record[k]) for k in keys])


def _fmt(value):
    return repr(value) if isinstance(value, float) else value


def cmd_eval(args):
    state = _load_state(args.checkpoint)
    root, split = _split_dir_of(args.data)
    data, meta = load_split(root, split)
    _check_shape(meta, state.config.net, EXIT_DATA)
    os.makedirs(args.out, exist_ok=True)
    preds = trainer_mod.predict(state, data)
    report = evaluate_many(
        [(pred, item.labels.labels) for pred, item in zip(preds, data)],
        state.config.net.num_classes,
    )
    rows = [["metric", "value"]] + [[k, repr(v)] for k, v in report.as_row().items()]
    for c in range(report.num_classes):
        rows.append([f"f_class_{c}", repr(float(report.per_class_f[c]))])
        rows.append([f"ji_class_{c}", repr(float(report.per_class_ji[c]))])
    with open(os.path.join(args.out, "eval_report.csv"), "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    for item, pred in zip(data, preds):
        svg = segmentation_ribbon_svg(
            [("truth", item.labels.labels), ("pred", pred)], report.num_classes
        )
        with open(os.path.join(args.out, f"ribbon_{item.sequence.id}.svg"), "w") as fh:
            fh.write(svg)
    print(f"acc={report.acc:.4f} f_m={report.f_m:.4f} ji={report.ji:.4f}"
          f" iou={report.iou:.4f} o_u={report.o_u:.4f}")


def _load_state(path):
    _require(path, "checkpoint")
    try:
        return load_checkpoint(path)
    except (ValueError, KeyError, zipfile.BadZipFile, OSError) as exc:
        raise CliError(EXIT_DATA, f"cannot read checkpoint {path}: {exc}")


def cmd_pseudo(args):
    state = _load_state(args.checkpoint)
    root, split = _split_dir_of(args.data)
    data, meta = load_split(root, split)
    _check_shape(meta, state.config.net, EXIT_DATA)
    os.makedirs(args.out, exist_ok=True)
    seed = args.seed if args.seed is not None else state.config.seed
    for item, ann in zip(data, trainer_mod.training_annotations(data, seed)):
        labels, plan, classes = trainer_mod.generate_pseudo_for_sequence(
            item.sequence.data, ann, state)
        sid = item.sequence.id
        if labels is None:
            missing = classes[~state.bank.initialized[classes]]
            print(f"{sid}: skipped (uninitialized prototypes for classes {missing.tolist()})")
            continue
        np.savetxt(
            os.path.join(args.out, f"q_tot_{sid}.csv"),
            plan.q,
            delimiter=",",
            header=",".join(f"class_{c}" for c in classes.tolist()),
            comments="",
        )
        np.savetxt(
            os.path.join(args.out, f"pseudo_{sid}.csv"),
            labels.y.T,
            delimiter=",",
            header=",".join(f"class_{c}" for c in range(labels.y.shape[0])),
            comments="",
        )
    print(f"wrote pseudo-label dumps to {args.out}")


def cmd_cams(args):
    state = _load_state(args.checkpoint)
    root, split = _split_dir_of(args.data)
    data, meta = load_split(root, split)
    _check_shape(meta, state.config.net, EXIT_DATA)
    os.makedirs(args.out, exist_ok=True)
    for item in data:
        outputs = net_mod.forward(item.sequence.data, state.params, state.config.net)
        cams = compute_cams(outputs.z, state.params["ml.w"])
        np.savetxt(
            os.path.join(args.out, f"cams_{item.sequence.id}.csv"),
            cams.T,
            delimiter=",",
            header=",".join(f"class_{c}" for c in range(cams.shape[0])),
            comments="",
        )
    print(f"wrote CAM dumps to {args.out}")


def cmd_report(args):
    rows = []
    for run in args.runs:
        path = _require(os.path.join(run, "eval_report.csv"), "eval report")
        with open(path, newline="") as fh:
            metrics = {row[0]: row[1] for row in csv.reader(fh)}
        rows.append((os.path.basename(run.rstrip(os.sep)) or run, metrics))
    keys = ["acc", "f_m", "ji", "iou", "o_u"]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run"] + keys)
        for name, metrics in rows:
            writer.writerow([name] + [metrics.get(k, "") for k in keys])
    width = max(len(name) for name, _ in rows)
    print(f"{'run'.ljust(width)}  " + "  ".join(f"{k:>8}" for k in keys))
    for name, metrics in rows:
        vals = "  ".join(f"{float(metrics.get(k, 'nan')):8.4f}" for k in keys)
        print(f"{name.ljust(width)}  {vals}")


if __name__ == "__main__":
    sys.exit(main())
