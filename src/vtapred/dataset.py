"""Tachogram ingestion, patient metadata, and the pre-event decision boundary.

A dataset is a directory of UTF-8 tachogram files (one RR interval in
milliseconds per line; the file stem is the record id) plus a metadata CSV
with the header ``record_id,patient_id,label,birth_year,nyhac,bmi``.  Empty
metadata cells mean "unknown".  Records of the event class end at the onset
of the arrhythmia, so dropping the final minute of signal leaves exactly the
data an early-warning model is allowed to see.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

LABEL_VTA = "VTA"
LABEL_CONTROL = "Control"
LABELS = (LABEL_CONTROL, LABEL_VTA)  # indexed by class code: 0 = Control, 1 = VTA

METADATA_COLUMNS = ("record_id", "patient_id", "label", "birth_year", "nyhac", "bmi")

MAX_INTERVAL_MS = 5000.0
DEFAULT_HORIZON_MS = 60000.0
MIN_BEATS = 250  # >= features.WINDOW_BEATS: a kept record holds its trend window

BMI_RANGE = (10.0, 100.0)
NYHAC_CLASSES = (1, 2, 3, 4)

# what every text input strips around a value: the ASCII whitespace that
# float() and int() also skip; str.strip() would take non-ASCII space as well
ASCII_WHITESPACE = " \t\n\r\v\f"


class DatasetError(Exception):
    """Malformed tachogram or metadata input."""


def round_to_decade(year: int) -> int:
    """Round a calendar year to the nearest decade, ties upward (1945 -> 1950)."""
    return int(math.floor(year / 10.0 + 0.5)) * 10


@dataclass(frozen=True, eq=False)
class PatientMeta:
    """Per-patient metadata; every field except the id may be unknown (None)."""

    patient_id: str
    birth_decade: int | None = None  # birth year rounded to a decade
    nyhac: int | None = None         # heart-failure functional class, 1..4
    bmi: float | None = None         # kg/m^2


@dataclass(frozen=True, eq=False)
class RRRecord:
    """One tachogram: consecutive RR intervals in milliseconds plus its label."""

    record_id: str
    intervals_ms: np.ndarray
    label: str
    patient_id: str

    def __post_init__(self):
        arr = np.array(self.intervals_ms, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise DatasetError(
                f"record {self.record_id!r}: intervals must be a non-empty 1-D sequence"
            )
        if not np.all((arr > 0.0) & (arr < MAX_INTERVAL_MS)):  # also rejects NaN and inf
            raise DatasetError(
                f"record {self.record_id!r}: intervals must lie in (0, {MAX_INTERVAL_MS:g}) ms"
            )
        if self.label not in LABELS:
            raise DatasetError(f"record {self.record_id!r}: unknown label {self.label!r}")
        arr.flags.writeable = False  # a frozen record's intervals cannot change in place either
        object.__setattr__(self, "intervals_ms", arr)

    def __len__(self) -> int:
        return int(self.intervals_ms.size)


def prepare_records(
    records: list[RRRecord],
    horizon_ms: float = DEFAULT_HORIZON_MS,
) -> list[RRRecord]:
    """Cut each record at the decision boundary and drop the ones left too short.

    The cut removes the minimal suffix whose cumulative duration reaches
    ``horizon_ms``, so every kept beat ends strictly more than one horizon
    before the event (or recording end).  Controls are cut identically so
    both classes lose a comparable amount of signal.  A non-positive horizon
    returns each record unchanged; a NaN horizon cuts every beat.  Records
    left with fewer than ``MIN_BEATS`` intervals are excluded with a logged
    warning rather than failing the whole run.
    """
    kept = []
    for rec in records:
        beats = len(rec)
        if not horizon_ms <= 0:  # NaN cuts too: it leaves no beat
            tail_sums = np.cumsum(rec.intervals_ms[::-1])
            beats -= int(np.searchsorted(tail_sums, horizon_ms, side="left")) + 1
        if beats < MIN_BEATS:
            log.warning(
                "excluding record %r: %d beats remain before the %g ms boundary (need %d)",
                rec.record_id, max(beats, 0), horizon_ms, MIN_BEATS,
            )
            continue
        if beats < len(rec):
            rec = RRRecord(rec.record_id, rec.intervals_ms[:beats], rec.label, rec.patient_id)
        kept.append(rec)
    return kept


def parse_number(text: str, kind: type = float):
    """``kind(text)`` of ASCII text without ``_``; ``int()`` and ``float()`` alone read ``8_00`` and ``８`` too."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a number: {text!r}")
    return kind(text)


def read_text(path: Path) -> str:
    """A file's whole UTF-8 text; a byte that is not UTF-8 is named with its path and line."""
    data = path.read_bytes().removeprefix(b"\xef\xbb\xbf")  # one byte-order mark, as some editors write
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        # a line ends at \n, \r\n or a lone \r, as text mode reads it
        lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise DatasetError(
            f"{path}, line {lineno}: not UTF-8 text (byte 0x{data[exc.start]:02x})"
        ) from None


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then each of ``rows`` as one UTF-8 CSV line ending in ``\\n``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_tachogram(path: Path) -> np.ndarray:
    text = read_text(path)
    # split("\n"), not splitlines(): a form feed does not end a line
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    # One pass for a well-formed file: float() ignores surrounding
    # ASCII_WHITESPACE, and the range test also rejects NaN and inf.  float()
    # also reads "8_00" and non-ASCII digits, which parse_number rejects.
    if text.isascii() and "_" not in text:
        try:
            values = np.fromiter(map(float, lines), float, len(lines))
        except ValueError:
            pass
        else:
            if values.size and ((values > 0.0) & (values < MAX_INTERVAL_MS)).all():
                return values
    return _parse_tachogram_lines(path, lines)


def _parse_tachogram_lines(path: Path, lines: list[str]) -> np.ndarray:
    """Read a tachogram line by line: blank lines are skipped, the first bad line is named."""
    values = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip(ASCII_WHITESPACE)
        if not text:
            continue
        try:
            value = parse_number(text)
        except ValueError:
            raise DatasetError(f"{path}, line {lineno}: not a number: {text!r}") from None
        if not 0.0 < value < MAX_INTERVAL_MS:  # also rejects NaN and inf
            raise DatasetError(
                f"{path}, line {lineno}: interval {text!r} outside (0, {MAX_INTERVAL_MS:g}) ms"
            )
        values.append(value)
    if not values:
        raise DatasetError(f"{path}: empty tachogram")
    return np.asarray(values, dtype=float)


def _parse_metadata_row(row: list[str], lineno: int, path: Path) -> dict:
    if len(row) != len(METADATA_COLUMNS):
        raise DatasetError(
            f"{path}, line {lineno}: expected {len(METADATA_COLUMNS)} columns, got {len(row)}"
        )
    record_id, patient_id, label, birth_year, nyhac, bmi = (cell.strip(ASCII_WHITESPACE) for cell in row)
    if not record_id or not patient_id:
        raise DatasetError(f"{path}, line {lineno}: record_id and patient_id are required")
    if label not in LABELS:
        raise DatasetError(f"{path}, line {lineno}: label must be one of {LABELS}, got {label!r}")

    def optional(column: str, text: str, parse):
        """None for an empty cell, else the parsed value; a bad value names its column."""
        if not text:
            return None
        try:
            return parse(text)
        except ValueError:
            raise DatasetError(f"{path}, line {lineno}: bad {column} {text!r}") from None

    decade = optional("birth_year", birth_year, lambda text: round_to_decade(parse_number(text, int)))
    nyhac_val = optional("nyhac", nyhac, lambda text: parse_number(text, int))
    if nyhac_val is not None and nyhac_val not in NYHAC_CLASSES:
        raise DatasetError(f"{path}, line {lineno}: nyhac must be in {NYHAC_CLASSES}")
    bmi_val = optional("bmi", bmi, parse_number)
    if bmi_val is not None and not (BMI_RANGE[0] <= bmi_val <= BMI_RANGE[1]):
        raise DatasetError(
            f"{path}, line {lineno}: bmi {bmi_val:g} outside [{BMI_RANGE[0]:g}, {BMI_RANGE[1]:g}]"
        )

    return {
        "record_id": record_id,
        "patient_id": patient_id,
        "label": label,
        "meta": PatientMeta(patient_id, decade, nyhac_val, bmi_val),
    }


def _read_metadata(path: Path) -> tuple[dict, dict]:
    """Parse the metadata CSV into (record rows by id, PatientMeta by patient id)."""
    rows: dict[str, dict] = {}
    patients: dict[str, PatientMeta] = {}
    with io.StringIO(read_text(path), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(cell.strip(ASCII_WHITESPACE) for cell in header) != METADATA_COLUMNS:
            raise DatasetError(
                f"{path}, line 1: header must be exactly {','.join(METADATA_COLUMNS)!r}"
            )
        next_line = reader.line_num + 1
        for row in reader:
            # a record is named by its first file line; a quoted cell may span several
            lineno, next_line = next_line, reader.line_num + 1
            if not row or all(not cell.strip(ASCII_WHITESPACE) for cell in row):
                continue
            parsed = _parse_metadata_row(row, lineno, path)
            rid = parsed["record_id"]
            if rid in rows:
                raise DatasetError(f"{path}, line {lineno}: duplicate record_id {rid!r}")
            meta = parsed["meta"]
            seen = patients.get(meta.patient_id)
            if seen is None:
                patients[meta.patient_id] = meta
            elif (seen.birth_decade, seen.nyhac, seen.bmi) != (meta.birth_decade, meta.nyhac, meta.bmi):
                raise DatasetError(
                    f"{path}, line {lineno}: patient {meta.patient_id!r} has inconsistent metadata"
                )
            rows[rid] = parsed
    return rows, patients


def tachogram_files(tachogram_dir) -> list[Path]:
    """Every regular file of a directory whose name does not start with a dot, by stem."""
    return sorted(
        (p for p in Path(tachogram_dir).iterdir() if p.is_file() and not p.name.startswith(".")),
        key=lambda p: p.stem,
    )


def load_dataset(tachogram_dir, metadata_file) -> tuple[list[RRRecord], dict[str, PatientMeta]]:
    """Load every tachogram in a directory along with its metadata.

    Args:
        tachogram_dir: directory of tachogram text files; the file stem is the
            record id.
        metadata_file: CSV with one row per record (see module docstring).

    Returns:
        (records, patients): records sorted by record id, and a mapping from
        patient id to PatientMeta, every patient of the metadata included.
        A tachogram without a metadata row, two files with one stem, or any
        malformed line, raises DatasetError naming the offending location.
        Metadata rows without a tachogram are left out with one logged
        warning that names the first five of them.
    """
    dir_path = Path(tachogram_dir)
    if not dir_path.is_dir():
        raise DatasetError(f"tachogram directory not found: {dir_path}")
    rows, patients = _read_metadata(Path(metadata_file))

    files = tachogram_files(dir_path)
    if not files:
        raise DatasetError(f"no tachogram files in {dir_path}")

    records = []
    for prev, path in zip([None, *files], files):
        rid = path.stem
        if prev is not None and prev.stem == rid:
            raise DatasetError(f"{prev} and {path}: two tachogram files for record {rid!r}")
        row = rows.get(rid)
        if row is None:
            raise DatasetError(f"{path}: no metadata row for record {rid!r}")
        records.append(RRRecord(rid, _read_tachogram(path), row["label"], row["patient_id"]))
    missing = sorted(rows.keys() - {rec.record_id for rec in records})
    if missing:
        log.warning("ignoring %d metadata rows without a tachogram file: %s%s", len(missing),
                    ", ".join(map(repr, missing[:5])), ", ..." if len(missing) > 5 else "")
    return records, patients
