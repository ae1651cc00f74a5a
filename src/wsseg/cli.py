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
from .metrics import SCORES, evaluate_many
from .seqdata import (
    LabeledSequence,
    SyntheticSpec,
    generate_synthetic,
    load_sequence,
    write_sequence_csv,
)
from .trainer import TrainConfig, load_checkpoint, save_checkpoint
from .viz import segmentation_ribbon_svg

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_MISSING = 4
EXIT_DATA = 5

# Retired synth keys and the one value each could still hold; class means are N(0, 1).
RETIRED_SYNTH_KEYS = {"mean_scale": 1.0}


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line errors, distinct exit code
        raise CliError(EXIT_USAGE, message)


def _non_negative_int(text):
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


_non_negative_int.__name__ = "non-negative integer"  # argparse: "invalid <name> value"


def build_parser():
    parser = _Parser(prog="wsseg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    checkpoint = argparse.ArgumentParser(add_help=False)
    for flag in ("--checkpoint", "--data", "--out"):
        checkpoint.add_argument(flag, required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_non_negative_int)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_non_negative_int)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", parents=[checkpoint], help="evaluate a checkpoint on a data split")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("pseudo", parents=[checkpoint],
                       help="dump transport plans and pseudo-labels")
    p.add_argument("--seed", type=_non_negative_int)
    p.set_defaults(handler=cmd_pseudo)

    p = sub.add_parser("cams", parents=[checkpoint], help="dump class activation maps as CSV")
    p.set_defaults(handler=cmd_cams)

    p = sub.add_parser("report", help="aggregate eval reports across runs")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise CliError(EXIT_USAGE, "a subcommand is required (see --help)")
        args.handler(args)
        return EXIT_OK
    except SystemExit as exc:  # --help lands here with code 0
        return int(exc.code or 0)
    except CliError as exc:
        print(f"wsseg: error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:  # a fault of the program, not of its input
        print(f"wsseg: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _require(path, what):
    if not os.path.exists(path):
        raise CliError(EXIT_MISSING, f"{what} not found: {path}")
    return path


def _empty_out_dir(path):
    """Create the ``--out`` directory ``path`` if needed. Exits 2 when it
    cannot be, for instance when it is a file or lies under one, and when
    it is not empty: the files of an earlier run would sit beside the new
    ones."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot create output directory {path}: {exc.strerror}")
    if os.listdir(path):
        raise CliError(EXIT_USAGE, f"output directory {path} is not empty")


def _section(path, name):
    """The ``name`` section of the JSON config at ``path``, as a new dict.
    Exits 4 when the file is missing and 3 unless the file's top level and
    the section are both JSON objects."""
    _require(path, "config file")
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:  # not JSON, not text, a directory
        raise CliError(EXIT_CONFIG, f"cannot read config {path}: {exc}")
    if not isinstance(config, dict):
        raise CliError(EXIT_CONFIG, f"{path}: the config is not a JSON object")
    if not isinstance(config.get(name), dict):
        raise CliError(EXIT_CONFIG, f"{path}: missing {name!r} section or not an object")
    return dict(config[name])


def cmd_synth(args):
    synth = _section(args.config, "synth")
    seed = synth.pop("seed", 0)
    if args.seed is not None:
        seed = args.seed
    counts = {split: synth.pop(f"n_{split}", 0) for split in ("train", "val", "test")}
    for name, value in [("seed", seed)] + [(f"n_{s}", n) for s, n in counts.items()]:
        if type(value) is not int or value < 0:  # exactly int: JSON true is a bool
            raise CliError(EXIT_CONFIG, f"invalid synth spec: {name} must be a"
                                        f" non-negative integer, not {value!r}")
    try:
        trainer_mod.drop_retired(synth, RETIRED_SYNTH_KEYS)
        spec = SyntheticSpec(**synth)
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_CONFIG, f"invalid synth spec: {exc}")

    _empty_out_dir(args.out)  # stale sequences would join the new splits
    root = np.random.SeedSequence(seed)
    means_rng = np.random.default_rng(root.spawn(1)[0])
    if spec.class_means is None:
        spec.class_means = means_rng.normal(0.0, 1.0, size=(spec.num_classes, spec.num_channels))
    index = 0
    for split, count in counts.items():
        split_dir = os.path.join(args.out, split)
        os.makedirs(split_dir, exist_ok=True)
        for i in range(count):
            item = LabeledSequence(*generate_synthetic(spec, np.random.SeedSequence([seed, index])))
            write_sequence_csv(os.path.join(split_dir, f"seq_{i:03d}.csv"), item)
            index += 1
    meta = {
        "num_classes": spec.num_classes,
        "num_channels": spec.num_channels,
        "seed": seed,
        "splits": counts,
    }
    with open(os.path.join(args.out, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
    print(f"wrote dataset to {args.out}")


def load_dataset(path, net, code):
    """Every labelled sequence CSV directly under ``path``, a dataset root
    (holding ``meta.json``) or a split directory of one. Before any CSV is
    parsed, the meta's channel and class counts must be ``net``'s
    ``in_dim`` and ``num_classes``: exit ``code`` otherwise. Other meta keys,
    such as an older file's ``sample_rate_hz``, are ignored."""
    meta_path = os.path.join(path, "meta.json")
    if not os.path.exists(meta_path):  # a split directory: its parent holds the meta
        meta_path = os.path.join(os.path.dirname(path.rstrip(os.sep)), "meta.json")
    if not os.path.exists(meta_path):
        raise CliError(EXIT_MISSING, f"no meta.json found at or above {path}")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
        shape = {"num_channels": meta["num_channels"], "num_classes": meta["num_classes"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CliError(EXIT_DATA, f"invalid dataset meta {meta_path}: {exc!r}")
    for key, expected in (("num_channels", net.in_dim), ("num_classes", net.num_classes)):
        if shape[key] != expected:
            raise CliError(code, f"dataset {key} is {shape[key]}, the network expects {expected}")
    if not os.path.isdir(path):
        raise CliError(EXIT_MISSING, f"data split not found: {path}")
    items = []
    for name in sorted(os.listdir(path)):
        if not name.endswith(".csv"):
            continue
        csv_path = os.path.join(path, name)
        try:
            items.append(load_sequence(csv_path, net.in_dim, net.num_classes,
                                       id=name[: -len(".csv")]))
        except OSError as exc:  # a directory, an unreadable file
            raise CliError(EXIT_DATA, f"cannot read sequence {csv_path}: {exc.strerror}")
        except ValueError as exc:
            # the CSV parser's own messages already start with the path
            detail = str(exc) if str(exc).startswith(csv_path) else f"{csv_path}: {exc}"
            raise CliError(EXIT_DATA, f"invalid sequence {detail}")
    if not items:
        raise CliError(EXIT_DATA, f"no sequence CSVs under {path}")
    return items


def cmd_train(args):
    section = _section(args.config, "train")
    if args.seed is not None:
        section["seed"] = args.seed
    try:
        config = TrainConfig.from_dict(section)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(EXIT_CONFIG, f"invalid train config: {exc}")
    train_set = load_dataset(os.path.join(args.data, "train"), config.net, EXIT_CONFIG)
    val_set = load_dataset(os.path.join(args.data, "val"), config.net, EXIT_CONFIG)
    _empty_out_dir(args.out)
    state, logs = trainer_mod.train(train_set, val_set, config, diag_dir=args.out)
    save_checkpoint(state, os.path.join(args.out, "checkpoint.npz"))
    write_log_csv(os.path.join(args.out, "train_log.csv"), logs)
    best = f"; best val F_m {state.best_f_m:.4f} at epoch {state.best_epoch}" if logs else ""
    print(f"trained {state.epoch} epochs{best}")


def write_log_csv(path, logs):
    """The train log: a ``trainer.LOG_COLUMNS`` header, then one row per record."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=trainer_mod.LOG_COLUMNS)
        writer.writeheader()
        writer.writerows(logs)


def _write_columns(path, rows, classes):
    """One CSV of ``rows`` under a ``class_<c>`` header, one column per class."""
    np.savetxt(path, rows, delimiter=",", header=",".join(f"class_{c}" for c in classes),
               comments="")


def _checkpoint_inputs(args):
    """The state at ``--checkpoint`` and the dataset at ``--data`` that
    ``eval``, ``pseudo`` and ``cams`` read, with ``--out`` created. Exits 5
    when either cannot be read or the dataset's shape is not the network's,
    and 2 when ``--out`` cannot be created or is not empty."""
    path = _require(args.checkpoint, "checkpoint")
    try:
        state = load_checkpoint(path)
    except (ValueError, KeyError, TypeError, zipfile.BadZipFile, OSError) as exc:
        raise CliError(EXIT_DATA, f"cannot read checkpoint {path}: {exc}")
    data = load_dataset(args.data, state.config.net, EXIT_DATA)
    _empty_out_dir(args.out)
    return state, data


def cmd_eval(args):
    state, data = _checkpoint_inputs(args)
    preds = trainer_mod.predict(state, data)
    num_classes = state.config.net.num_classes
    report = evaluate_many(
        [(pred, item.labels.labels) for pred, item in zip(preds, data)], num_classes
    )
    rows = [["metric", "value"]] + [[k, repr(v)] for k, v in report.as_row().items()]
    for c in range(num_classes):
        rows.append([f"f_class_{c}", repr(float(report.per_class_f[c]))])
        rows.append([f"ji_class_{c}", repr(float(report.per_class_ji[c]))])
    with open(os.path.join(args.out, "eval_report.csv"), "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    for item, pred in zip(data, preds):
        svg = segmentation_ribbon_svg(
            [("truth", item.labels.labels), ("pred", pred)], num_classes
        )
        with open(os.path.join(args.out, f"ribbon_{item.sequence.id}.svg"), "w") as fh:
            fh.write(svg)
    print(" ".join(f"{k}={v:.4f}" for k, v in report.as_row().items()))


def cmd_pseudo(args):
    state, data = _checkpoint_inputs(args)
    seed = args.seed if args.seed is not None else state.config.seed
    for item, ann in zip(data, trainer_mod.training_annotations(data, seed)):
        labels, plan, classes = trainer_mod.generate_pseudo_for_sequence(
            item.sequence.data, ann, state)
        sid = item.sequence.id
        if labels is None:
            missing = classes[~state.bank.initialized[classes]]
            print(f"{sid}: skipped (uninitialized prototypes for classes {missing.tolist()})")
            continue
        if not plan.converged:  # the dumps below come from the last iterate
            print(f"{sid}: transport did not converge within ot_max_iters="
                  f"{state.config.ot_max_iters} (marginal residual {plan.marginal_residual:.3g})")
        _write_columns(os.path.join(args.out, f"q_tot_{sid}.csv"), plan.q, classes.tolist())
        _write_columns(os.path.join(args.out, f"pseudo_{sid}.csv"), labels.y.T,
                       range(labels.y.shape[0]))
    print(f"wrote pseudo-label dumps to {args.out}")


def cmd_cams(args):
    state, data = _checkpoint_inputs(args)
    for item in data:
        outputs = net_mod.forward(item.sequence.data, state.params, state.config.net)
        cams = compute_cams(outputs.z, state.params["ml.w"])
        _write_columns(os.path.join(args.out, f"cams_{item.sequence.id}.csv"), cams.T,
                       range(cams.shape[0]))
    print(f"wrote CAM dumps to {args.out}")


def cmd_report(args):
    rows = []
    for run in args.runs:  # every report is read and checked before anything is written
        path = _require(os.path.join(run, "eval_report.csv"), "eval report")
        try:
            with open(path, newline="") as fh:
                metrics = dict(csv.reader(fh))  # ValueError unless every row has two cells
            values = [float(metrics[k]) for k in SCORES]
        except KeyError as exc:
            raise CliError(EXIT_DATA, f"eval report {path} has no {exc.args[0]} metric")
        except (OSError, ValueError, csv.Error) as exc:
            raise CliError(EXIT_DATA, f"cannot read eval report {path}: {exc}")
        rows.append((os.path.basename(run.rstrip(os.sep)) or run, metrics, values))
    try:
        out = open(args.out, "w", newline="")
    except OSError as exc:  # a directory, or under a file
        raise CliError(EXIT_USAGE, f"cannot write report {args.out}: {exc.strerror}")
    with out as fh:
        writer = csv.writer(fh)
        writer.writerow(["run"] + list(SCORES))
        for name, metrics, _ in rows:
            writer.writerow([name] + [metrics[k] for k in SCORES])
    width = max(len(name) for name, _, _ in rows)
    print(f"{'run'.ljust(width)}  " + "  ".join(f"{k:>8}" for k in SCORES))
    for name, _, values in rows:
        print(f"{name.ljust(width)}  " + "  ".join(f"{v:8.4f}" for v in values))


if __name__ == "__main__":
    sys.exit(main())
