"""Command line for the pipeline: feature export, training, the ablation grid.

Configuration lives in a flat ``key = value`` text file; each command takes only
the keys of ``SETTINGS`` it reads, from the file or the matching command-line
flags, and flags win over the file, which wins over the defaults.  All randomness flows from ``--seed`` (or the seed list of the
ablation grid), so identical invocations produce byte-identical outputs.

Exit codes: 0 success, 1 data or configuration error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import sys
from dataclasses import fields
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import (
    ASCII_WHITESPACE,
    DEFAULT_HORIZON_MS,
    DatasetError,
    load_dataset,
    parse_number,
    prepare_records,
    read_text,
    tachogram_files,
)
from .evaluation import (
    CVConfig,
    EvaluationError,
    fit_model,
    format_report_table,
    run_ablation,
    write_per_seed_csv,
    write_predictions_csv,
    write_report_csv,
)
from .features import FEATURE_SET_RECENT, FeatureError, build_cohort, feature_names, write_feature_matrix
from .network import CheckpointError, save_checkpoint
from .optim import TrainingError, write_loss_history

log = logging.getLogger(__name__)


class ConfigError(Exception):
    """Unusable configuration file or flag combination."""


def _parse_bool(text: str) -> bool:
    lowered = text.strip(ASCII_WHITESPACE).lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parser(default):
    """A setting's parser, by its default's type: bool first, because bool is a subclass of int."""
    if isinstance(default, (bool, str)):
        return _parse_bool if isinstance(default, bool) else str
    parse = partial(parse_number, kind=type(default))
    parse.__name__ = type(default).__name__  # argparse names it: "invalid int value"
    return parse


# key -> (parser, default, the commands that read it); this one table drives the
# config file, each command's flags, and the settings the manifest and the
# checkpoint header echo.
SETTINGS: dict[str, tuple] = {
    key: (_parser(default), default, commands)
    for defaults, commands in (
        ({"feature_set": FEATURE_SET_RECENT}, ("features", "train")),
        ({"epochs": CVConfig.epochs}, ("train", "ablate")),
        # ablate's rows set both
        ({"multi_task": CVConfig.multi_task, "use_embedding": CVConfig.use_embedding}, ("train",)),
        ({"k_folds": CVConfig.k_folds, "patient_grouped": CVConfig.patient_grouped}, ("ablate",)),
        ({"horizon_ms": DEFAULT_HORIZON_MS}, ("features", "train", "ablate")),
        ({"seed": 0}, ("train", "ablate")),
        ({"seeds": 10, "jobs": 1}, ("ablate",)),
    )
    for key, default in defaults.items()
}


def read_by(command: str) -> list[str]:
    """The keys of ``SETTINGS`` that ``command`` reads, in table order."""
    return [key for key, (_, _, commands) in SETTINGS.items() if command in commands]


def parse_config_file(path, command: str) -> dict:
    """The ``key = value`` lines of a UTF-8 file, each a key ``command`` reads; blank and ``#`` lines are skipped."""
    values = {}
    # newline=None ends a line at \n, \r\n or a lone \r, as open() in text mode does
    with io.StringIO(read_text(Path(path)), newline=None) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip(ASCII_WHITESPACE)
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ConfigError(f"{path}, line {lineno}: expected 'key = value'")
            key, _, raw = text.partition("=")
            key, raw = key.strip(ASCII_WHITESPACE), raw.strip(ASCII_WHITESPACE)
            if key not in SETTINGS:
                raise ConfigError(f"{path}, line {lineno}: unknown key {key!r}")
            if command not in SETTINGS[key][2]:
                raise ConfigError(f"{path}, line {lineno}: {command} does not read key {key!r}")
            if key in values:
                raise ConfigError(f"{path}, line {lineno}: duplicate key {key!r}")
            try:
                values[key] = SETTINGS[key][0](raw)
            except ValueError as exc:
                raise ConfigError(f"{path}, line {lineno}: bad value for {key!r}: {exc}") from None
    return values


def resolve_settings(args: argparse.Namespace) -> dict:
    """Merge flag > config file > default into one dict of the keys ``args.command`` reads."""
    from_file = parse_config_file(args.config, args.command) if args.config is not None else {}
    flags = {key: getattr(args, key) for key in read_by(args.command)}
    return {key: from_file.get(key, SETTINGS[key][1]) if flag is None else flag for key, flag in flags.items()}


def build_configs(settings: dict) -> CVConfig:
    """The CV config of the settings keys among its fields; the others keep their defaults."""
    try:
        return CVConfig(**{f.name: settings[f.name] for f in fields(CVConfig) if f.name in settings})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# The paths each command writes, as {suffix appended to --out: is a directory}.
# _prepare checks every one before any data is read, and the command writes to these.
OUTPUTS: dict[str, dict[str, bool]] = {
    "features": {"": False},
    "train": {"": False, ".loss.csv": False},
    "ablate": {"": True, "/report.csv": False, "/report.txt": False, "/per_seed.csv": False,
               "/predictions": True, "/manifest.json": False},
}


def _check_outputs(out: str, outputs: dict[str, bool]) -> dict[str, Path]:
    """The path of each suffix of ``outputs``, each checked before any work is done.

    A file must not be a directory and needs its directory, existing or in
    ``outputs``; a directory is made with its parents, so the nearest part of
    its path that exists must be a directory.
    """
    paths = {suffix: Path(f"{out}{suffix}") for suffix in outputs}
    made = {paths[suffix] for suffix, is_dir in outputs.items() if is_dir}
    for suffix, is_dir in outputs.items():
        path = paths[suffix]
        where = f"--out {out}: {path}" if suffix else f"--out {out}"
        if is_dir:
            existing = next(p for p in (path, *path.parents) if p.exists())
            if not existing.is_dir():
                raise ConfigError(f"--out {out}: {existing} is not a directory")
        elif path.is_dir():
            raise ConfigError(f"{where} is a directory")
        elif not (path.parent.is_dir() or path.parent in made):
            raise ConfigError(f"{where}: no directory {path.parent}")
    return paths


def _prepare(args: argparse.Namespace):
    """Settings, the CV config and the paths of ``OUTPUTS``, checked before any data is read, then the records."""
    for name in ("data_dir", "metadata", "config", "out"):
        if getattr(args, name) == "":
            raise ConfigError(f"--{name.replace('_', '-')} must not be empty")
    settings = resolve_settings(args)
    cv = build_configs(settings)
    if "feature_set" in settings:
        feature_names(settings["feature_set"])  # an unknown family is rejected here
    # a non-positive horizon keeps every beat; NaN and inf would exclude every record
    if not np.isfinite(settings["horizon_ms"]):
        raise ConfigError(f"horizon_ms must be finite, got {settings['horizon_ms']!r}")
    for key, least in (("seed", 0), ("seeds", 1), ("jobs", 1)):
        if key in settings and settings[key] < least:
            raise ConfigError(f"{key} must be >= {least}, got {settings[key]!r}")
    paths = _check_outputs(args.out, OUTPUTS[args.command])
    records, patients = load_dataset(args.data_dir, args.metadata)
    prepared = prepare_records(records, horizon_ms=settings["horizon_ms"])
    if not prepared:
        raise DatasetError("no usable records after the decision boundary")
    return settings, cv, prepared, patients, paths


def dataset_checksum(tachogram_dir, metadata_file) -> str:
    """SHA-256 over the metadata and each name and content of :func:`tachogram_files`, in its order.

    Each part is fed after its length, so no two splits of the same bytes into
    names and contents give one digest.
    """
    import hashlib  # only ablate's manifest pays for its import

    digest = hashlib.sha256()

    def feed(part: bytes) -> None:
        digest.update(len(part).to_bytes(8, "big"))
        digest.update(part)

    feed(Path(metadata_file).read_bytes())
    for path in tachogram_files(tachogram_dir):
        feed(path.name.encode("utf-8"))
        feed(path.read_bytes())
    return digest.hexdigest()


def write_manifest(path, args, settings: dict, seed_list, n_records: int, checksum: str) -> None:
    manifest = {
        "tool": "vtapred",
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "dataset": {
            "tachograms": str(args.data_dir),
            "metadata": str(args.metadata),
            "checksum_sha256": checksum,
            "records_used": n_records,
        },
        "seeds": list(seed_list),
        "settings": settings,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_features(args: argparse.Namespace) -> int:
    settings, _, records, patients, paths = _prepare(args)
    write_feature_matrix(paths[""], build_cohort(records, patients, settings["feature_set"]))
    log.info("wrote %d feature rows to %s", len(records), paths[""])
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    settings, cv, records, patients, paths = _prepare(args)
    cohort = build_cohort(records, patients, settings["feature_set"])
    del records  # the fit reads only the cohort, so the tachograms go before it
    params, history, _ = fit_model(cohort, np.arange(len(cohort)), cv, settings["seed"], fold=0)
    save_checkpoint(paths[""], params, extra={"settings": settings})
    write_loss_history(paths[".loss.csv"], history)
    log.info("trained on %d records; checkpoint %s, losses %s", len(cohort), paths[""], paths[".loss.csv"])
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    settings, cv, records, patients, paths = _prepare(args)
    checksum = dataset_checksum(args.data_dir, args.metadata)  # the bytes the grid reads, not those left after it
    seed_list = list(range(settings["seed"], settings["seed"] + settings["seeds"]))

    report = run_ablation(records, patients, cv, seeds=seed_list, jobs=settings["jobs"])

    paths[""].mkdir(parents=True, exist_ok=True)
    write_report_csv(paths["/report.csv"], report)
    table = format_report_table(report)
    paths["/report.txt"].write_text(table, encoding="utf-8")
    write_per_seed_csv(paths["/per_seed.csv"], report)
    paths["/predictions"].mkdir(exist_ok=True)
    for (row, seed), probs in report.probs.items():
        write_predictions_csv(paths["/predictions"] / f"{row}_seed{seed}.csv", report.record_ids, report.labels, probs)
    write_manifest(paths["/manifest.json"], args, settings, seed_list, len(records), checksum)
    sys.stdout.write(table)
    return 0


def _add_common_arguments(sub: argparse.ArgumentParser, command: str, io_out: str) -> None:
    sub.add_argument("--data-dir", required=True, help="directory of tachogram text files")
    sub.add_argument("--metadata", required=True, help="metadata CSV path")
    sub.add_argument("--config", help="flat key=value configuration file")
    sub.add_argument("--out", required=True, help=io_out)
    # Mirror each key the command reads as a flag; bools get --key/--no-key pairs.
    for key in read_by(command):
        parser, default, _ = SETTINGS[key]
        flag = "--" + key.replace("_", "-")
        if parser is _parse_bool:
            sub.add_argument(flag, action=argparse.BooleanOptionalAction, default=None,
                             help=f"(default {default})")
        else:
            sub.add_argument(flag, type=parser, default=None, metavar=key.upper(),
                             help=f"(default {default})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vtapred",
        description="Early-warning prediction of ventricular tachyarrhythmia "
                    "from RR-interval tachograms.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"vtapred {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    for command, func, help_text, io_out in (
        ("features", cmd_features, "extract the configured feature matrix to CSV", "output CSV path"),
        ("train", cmd_train, "train one model on all usable records", "output checkpoint path"),
        ("ablate", cmd_ablate, "run the staged configuration grid with cross-validation",
         "output directory for reports"),
    ):
        sub = subparsers.add_parser(command, help=help_text, allow_abbrev=False)
        _add_common_arguments(sub, command, io_out)
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s", stream=sys.stderr)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version, 2 for usage errors; usage
        # problems are configuration errors here.
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (DatasetError, FeatureError, ConfigError, CheckpointError, EvaluationError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TrainingError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
