import logging
import re

import numpy as np
import pytest

from vtapred import (
    DatasetError,
    dataset,
    load_dataset,
    prepare_records,
)
from vtapred.dataset import MIN_BEATS, RRRecord, round_to_decade

HEADER = "record_id,patient_id,label,birth_year,nyhac,bmi\n"


def write_dataset(tmp_path, tachograms: dict, metadata_rows: list[str]):
    tacho = tmp_path / "tachograms"
    tacho.mkdir()
    for rid, intervals in tachograms.items():
        (tacho / f"{rid}.txt").write_text("".join(f"{v}\n" for v in intervals))
    meta = tmp_path / "metadata.csv"
    meta.write_text(HEADER + "".join(row + "\n" for row in metadata_rows))
    return tacho, meta


class TestDecadeRounding:
    def test_half_rounds_up(self):
        assert round_to_decade(1945) == 1950
        assert round_to_decade(1946) == 1950

    def test_below_half_rounds_down(self):
        assert round_to_decade(1944) == 1940
        assert round_to_decade(1941) == 1940

    def test_exact_decade_unchanged(self):
        assert round_to_decade(1950) == 1950


class TestLoadDataset:
    def test_metadata_example_row(self, tmp_path):
        tacho, meta = write_dataset(tmp_path, {"v1": [800.0] * 8}, ["v1,p1,VTA,1946,,27.5"])
        records, patients = load_dataset(tacho, meta)
        assert len(records) == 1
        assert records[0].label == "VTA"
        assert records[0].patient_id == "p1"
        p = patients["p1"]
        assert p.birth_decade == 1950
        assert p.nyhac is None
        assert p.bmi == 27.5

    def test_counts_and_ordering(self, tmp_path):
        tachograms = {f"v{i:03d}": [800.0] * 5 for i in range(135)}
        tachograms.update({f"c{i:03d}": [800.0] * 5 for i in range(126)})
        rows = [f"v{i:03d},pv{i},VTA,,," for i in range(135)]
        rows += [f"c{i:03d},pc{i},Control,,," for i in range(126)]
        tacho, meta = write_dataset(tmp_path, tachograms, rows)
        records, _ = load_dataset(tacho, meta)
        assert len(records) == 261
        assert sum(r.label == "VTA" for r in records) == 135
        assert sum(r.label == "Control" for r in records) == 126
        ids = [r.record_id for r in records]
        assert ids == sorted(ids)

    @pytest.mark.parametrize("missing, named", [
        ((3, 11, 20), "3 metadata rows without a tachogram file: 'r03', 'r11', 'r20'"),
        ((0, 1, 2, 3, 4, 5, 23), "7 metadata rows without a tachogram file: 'r00', 'r01', 'r02', 'r03', 'r04', ..."),
    ])
    def test_metadata_rows_without_a_file_are_named_once(self, tmp_path, caplog, missing, named):
        # every patient stays in the returned metadata, as the decade vocabulary reads it
        rows = [f"r{i:02d},p{i:02d},{'VTA' if i % 2 else 'Control'},{1930 + i},," for i in range(24)]
        tachograms = {f"r{i:02d}": [800.0] * 5 for i in range(24) if i not in missing}
        tacho, meta = write_dataset(tmp_path, tachograms, rows)
        with caplog.at_level(logging.WARNING):
            records, patients = load_dataset(tacho, meta)
        assert len(records) == 24 - len(missing) and len(patients) == 24
        assert caplog.messages == [f"ignoring {named}"]

    def test_complete_dataset_logs_nothing(self, tacho_dataset, caplog):
        with caplog.at_level(logging.WARNING):
            load_dataset(*tacho_dataset)
        assert not caplog.messages

    def test_load_is_deterministic(self, tacho_dataset):
        first, _ = load_dataset(*tacho_dataset)
        second, _ = load_dataset(*tacho_dataset)
        assert [r.record_id for r in first] == [r.record_id for r in second]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.intervals_ms, b.intervals_ms)

    def test_records_are_read_only(self, tacho_dataset):
        records, _ = load_dataset(*tacho_dataset)
        with pytest.raises(ValueError):
            records[0].intervals_ms[0] = 1.0

    def test_negative_interval_names_file_and_line(self, tmp_path):
        tacho, meta = write_dataset(tmp_path, {"a": [800.0, -10.0, 800.0]}, ["a,p,VTA,,,"])
        with pytest.raises(DatasetError, match=r"a\.txt, line 2"):
            load_dataset(tacho, meta)

    def test_interval_upper_bound(self, tmp_path):
        tacho, meta = write_dataset(tmp_path, {"a": [800.0, 5000.0]}, ["a,p,VTA,,,"])
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(tacho, meta)

    def test_non_numeric_line(self, tmp_path):
        tacho, meta = write_dataset(tmp_path, {"a": [800.0, "beat", 700.0]}, ["a,p,VTA,,,"])
        with pytest.raises(DatasetError, match="line 2.*beat"):
            load_dataset(tacho, meta)

    def test_empty_tachogram(self, tmp_path):
        tacho, meta = write_dataset(tmp_path, {"a": []}, ["a,p,VTA,,,"])
        with pytest.raises(DatasetError, match="empty"):
            load_dataset(tacho, meta)

    def test_missing_metadata_row(self, tmp_path):
        tacho, meta = write_dataset(tmp_path, {"a": [800.0] * 4}, ["b,p,VTA,,,"])
        with pytest.raises(DatasetError, match="no metadata row"):
            load_dataset(tacho, meta)

    def test_extra_metadata_rows_are_ignored(self, tmp_path):
        tacho, meta = write_dataset(
            tmp_path, {"a": [800.0] * 4}, ["a,p,VTA,,,", "ghost,p2,Control,,,"])
        records, _ = load_dataset(tacho, meta)
        assert [r.record_id for r in records] == ["a"]

    def test_bad_header_rejected(self, tmp_path):
        tacho, _ = write_dataset(tmp_path, {"a": [800.0] * 4}, [])
        meta = tmp_path / "bad.csv"
        meta.write_text("record,patient,label\na,p,VTA\n")
        with pytest.raises(DatasetError, match="header"):
            load_dataset(tacho, meta)

    def test_duplicate_record_id(self, tmp_path):
        tacho, meta = write_dataset(tmp_path, {"a": [800.0] * 4},
                                    ["a,p,VTA,,,", "a,p,VTA,,,"])
        with pytest.raises(DatasetError, match="duplicate"):
            load_dataset(tacho, meta)

    def test_two_files_with_one_stem(self, tmp_path):
        tacho, meta = write_dataset(tmp_path, {"a": [800.0] * 4}, ["a,p,VTA,,,"])
        (tacho / "a.rr").write_text("700.0\n" * 4)
        with pytest.raises(DatasetError, match="two tachogram files for record 'a'") as info:
            load_dataset(tacho, meta)
        assert str(tacho / "a.txt") in str(info.value)
        assert str(tacho / "a.rr") in str(info.value)

    @pytest.mark.parametrize("row,complaint", [
        ("a,p,Maybe,,,", "label"),
        ("a,p,VTA,,7,", "nyhac"),
        ("a,p,VTA,,,900", "bmi"),
        ("a,p,VTA,soon,,", "birth_year"),
        ("a,,VTA,,,", "required"),
        # int() and float() alone read these as 1950, 2 and 25.5
        ("a,p,VTA,1_950,,", "bad birth_year '1_950'"),
        ("a,p,VTA,,\uff12,", "bad nyhac '\uff12'"),
        ("a,p,VTA,,,2_5.5", "bad bmi '2_5.5'"),
    ])
    def test_bad_metadata_values(self, tmp_path, row, complaint):
        tacho, meta = write_dataset(tmp_path, {"a": [800.0] * 4}, [row])
        with pytest.raises(DatasetError, match=complaint):
            load_dataset(tacho, meta)

    def test_ascii_space_around_cells_is_stripped(self, tmp_path):
        tacho, meta = write_dataset(tmp_path, {"a": [800.0] * 4}, [" a ,\tp\t, VTA ,\t1946 , 2\t,\v27.5\f"])
        meta.write_text(" record_id\t, patient_id ,label,birth_year,nyhac,bmi \n" + meta.read_text().split("\n", 1)[1])
        records, patients = load_dataset(tacho, meta)
        assert [(r.record_id, r.patient_id, r.label) for r in records] == [("a", "p", "VTA")]
        p = patients["p"]
        assert (p.patient_id, p.birth_decade, p.nyhac, p.bmi) == ("p", 1950, 2, 27.5)

    # str.strip() would read these cells as 1950, 2, 25, VTA and a blank row
    @pytest.mark.parametrize("row,complaint", [
        ("a,p,VTA,1950\u00a0,,", "bad birth_year '1950\\xa0'"),
        ("a,p,VTA,,\u20032,", "bad nyhac '\\u20032'"),
        ("a,p,VTA,,,25\u3000", "bad bmi '25\\u3000'"),
        ("a,p,VTA\u00a0,,,", "label must be one of ('Control', 'VTA'), got 'VTA\\xa0'"),
        ("\u00a0", "expected 6 columns, got 1"),
        ("\u00a0,\u00a0,\u00a0,,,", "label must be one of ('Control', 'VTA'), got '\\xa0'"),
    ])
    def test_non_ascii_space_in_a_cell_is_kept(self, tmp_path, row, complaint):
        tacho, meta = write_dataset(tmp_path, {"a": [800.0] * 4}, [])
        meta.write_text(HEADER + row + "\n", encoding="utf-8")
        with pytest.raises(DatasetError) as info:
            load_dataset(tacho, meta)
        assert str(info.value) == f"{meta}, line 2: {complaint}"

    def test_non_ascii_space_in_the_header_is_kept(self, tmp_path):
        tacho, meta = write_dataset(tmp_path, {"a": [800.0] * 4}, [])
        meta.write_text(HEADER.replace("bmi", "bmi\u00a0") + "a,p,VTA,,,\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=f"^{re.escape(str(meta))}, line 1: header must be exactly"):
            load_dataset(tacho, meta)

    def test_error_names_the_first_file_line_of_its_record(self, tmp_path):
        # patient "p\nq" spans file lines 2-3, so the bad nyhac sits on line 4
        tacho, meta = write_dataset(tmp_path, {"a": [800.0] * 4}, ['a,"p\nq",VTA,,,', "b,r,VTA,,7,"])
        with pytest.raises(DatasetError, match=f"^{re.escape(str(meta))}, line 4: nyhac"):
            load_dataset(tacho, meta)
        (tmp_path / "flat").mkdir()
        tacho, meta = write_dataset(tmp_path / "flat", {"a": [800.0] * 4}, ["a,pq,VTA,,,", "b,r,VTA,,7,"])
        with pytest.raises(DatasetError, match=f"^{re.escape(str(meta))}, line 3: nyhac"):
            load_dataset(tacho, meta)

    def test_inconsistent_patient_metadata(self, tmp_path):
        tacho, meta = write_dataset(
            tmp_path,
            {"a": [800.0] * 4, "b": [800.0] * 4},
            ["a,p,VTA,1950,2,25", "b,p,VTA,1960,2,25"],
        )
        with pytest.raises(DatasetError, match="inconsistent"):
            load_dataset(tacho, meta)


def write_raw_tachogram(tmp_path, content: bytes):
    """A one-record dataset whose tachogram file holds exactly ``content``."""
    tacho, meta = write_dataset(tmp_path, {}, ["a,p,VTA,,,"])
    path = tacho / "a.txt"
    path.write_bytes(content)
    return tacho, meta, path


class TestTachogramLines:
    """The line grammar: one decimal number per line, UTF-8, blanks ignored."""

    @pytest.mark.parametrize("content", [
        b"800\n\n750.5\n   \n\t\n900\n",        # blank and whitespace-only lines
        b"  800 \n\t750.5\t\n 900\t \n",       # values padded with spaces or tabs
        b"800\r\n750.5\r\n900\r\n",            # CRLF
        b"800\r750.5\r900\r",                  # lone CR
        b"800\n750.5\n900",                     # no trailing newline
        b"\n800\r\n\r\n750.5\r900\n\n",         # all of these at once
        b"0.8e3\n+750.5\n9e2\n",                # an exponent or a sign, as in 1e3
    ])
    def test_accepted_forms(self, tmp_path, content):
        tacho, meta, _ = write_raw_tachogram(tmp_path, content)
        records, _ = load_dataset(tacho, meta)
        assert records[0].intervals_ms.tolist() == [800.0, 750.5, 900.0]

    @pytest.mark.parametrize("bad,complaint", [
        ("nan", "interval 'nan' outside (0, 5000) ms"),
        ("inf", "interval 'inf' outside (0, 5000) ms"),
        ("0", "interval '0' outside (0, 5000) ms"),
        ("5000", "interval '5000' outside (0, 5000) ms"),
        ("800 900", "not a number: '800 900'"),
        ("8OO", "not a number: '8OO'"),
        ("800\x0c900", "not a number: '800\\x0c900'"),
        ("8_00", "not a number: '8_00'"),                  # float() reads 800
        ("\uff18\uff10\uff10", "not a number: '\uff18\uff10\uff10'"),  # full-width 800
        # non-ASCII space is kept, as --seeds '3\u00a0' keeps it; ASCII space and tab are stripped
        ("800\u00a0", "not a number: '800\\xa0'"),
        ("\u3000800", "not a number: '\\u3000800'"),
        (" 800\u00a0\t", "not a number: '800\\xa0'"),
    ])
    def test_first_bad_line_named_counting_blank_lines(self, tmp_path, bad, complaint):
        tacho, meta, path = write_raw_tachogram(tmp_path, f"800\n\n{bad}\n900\n".encode())
        with pytest.raises(DatasetError) as info:
            load_dataset(tacho, meta)
        assert str(info.value) == f"{path}, line 3: {complaint}"

    def test_bad_byte_names_file_and_line(self, tmp_path):
        tacho, meta, path = write_raw_tachogram(tmp_path, b"800\r\n\r\n8\xe900\n")
        with pytest.raises(DatasetError) as info:
            load_dataset(tacho, meta)
        assert str(info.value) == f"{path}, line 3: not UTF-8 text (byte 0xe9)"

    def test_byte_order_mark_is_dropped(self, tmp_path):
        tacho, meta, path = write_raw_tachogram(tmp_path, b"\xef\xbb\xbf800\r\n750.5\n900\n")
        records, _ = load_dataset(tacho, meta)
        assert records[0].intervals_ms.tolist() == [800.0, 750.5, 900.0]
        path.write_bytes(b"\xef\xbb\xbf800\n\n8\xe900\n")
        with pytest.raises(DatasetError) as info:
            load_dataset(tacho, meta)
        assert str(info.value) == f"{path}, line 3: not UTF-8 text (byte 0xe9)"

    def test_byte_order_mark_in_metadata_is_dropped(self, tmp_path):
        tacho, meta = write_dataset(tmp_path, {"a": [800.0] * 4}, ["a,p,VTA,1950,2,25"])
        plain_records, plain_patients = load_dataset(tacho, meta)
        meta.write_bytes(b"\xef\xbb\xbf" + meta.read_bytes())
        records, patients = load_dataset(tacho, meta)
        assert [vars(m) for m in patients.values()] == [vars(m) for m in plain_patients.values()]
        assert [(r.record_id, r.label) for r in records] == [(r.record_id, r.label) for r in plain_records]
        meta.write_bytes(meta.read_bytes() + b"b,Jos\xe9,VTA,,,\n")
        with pytest.raises(DatasetError) as info:
            load_dataset(tacho, meta)
        assert str(info.value) == f"{meta}, line 3: not UTF-8 text (byte 0xe9)"

    def test_bad_byte_in_metadata_names_the_file(self, tmp_path):
        tacho, meta = write_dataset(tmp_path, {"a": [800.0] * 4}, ["a,p,VTA,,,", "b,Jos\xe9,VTA,,,"])
        meta.write_bytes(meta.read_text().encode("latin-1"))
        with pytest.raises(DatasetError) as info:
            load_dataset(tacho, meta)
        assert str(info.value) == f"{meta}, line 3: not UTF-8 text (byte 0xe9)"

    def test_vectorised_and_line_by_line_reading_agree(self, tacho_dataset, monkeypatch):
        files = dataset.tachogram_files(tacho_dataset[0])
        by_lines = [
            dataset._parse_tachogram_lines(path, path.read_text(encoding="utf-8").split("\n"))
            for path in files
        ]

        def no_fallback(path, lines):
            raise AssertionError(f"{path} left the vectorised path")

        monkeypatch.setattr(dataset, "_parse_tachogram_lines", no_fallback)
        assert len(files) == 24
        for path, expected in zip(files, by_lines):
            fast = dataset._read_tachogram(path)
            assert fast.dtype == np.float64
            assert np.array_equal(fast, expected)


class TestRRRecord:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0, 5000.0])
    def test_interval_outside_the_range_rejected(self, bad):
        with pytest.raises(DatasetError) as caught:
            RRRecord("r", [800.0, bad, 800.0], "VTA", "p")
        assert str(caught.value) == "record 'r': intervals must lie in (0, 5000) ms"


class TestDecisionBoundary:
    def test_uniform_600ms_removes_100_beats(self):
        rec = RRRecord("r", np.full(1024, 600.0), "VTA", "p")
        [out] = prepare_records([rec], 60000.0)
        assert len(out) == 924

    def test_worked_suffix_example(self):
        prefix = [700.0] * 300  # clears the MIN_BEATS floor
        rec = RRRecord("r", prefix + [1000.0] * 5 + [900.0, 4900.0], "VTA", "p")
        # tail 4900 alone is under a 5000 ms horizon, 900+4900 crosses it
        [out] = prepare_records([rec], 5000.0)
        np.testing.assert_array_equal(out.intervals_ms, prefix + [1000.0] * 5)

    def test_zero_horizon_is_identity(self):
        rec = RRRecord("r", np.full(400, 700.0), "Control", "p")
        [out] = prepare_records([rec], 0.0)
        assert out is rec

    def test_removed_suffix_is_minimal(self, rng):
        for _ in range(50):
            n = int(rng.integers(400, 650))  # a 40 s horizon cuts at most 100 beats of >= 400 ms
            intervals = rng.uniform(400.0, 1200.0, size=n)
            rec = RRRecord("r", intervals, "VTA", "p")
            horizon = float(rng.uniform(5000.0, 40000.0))
            [out] = prepare_records([rec], horizon)
            removed = intervals[len(out):]
            assert removed.sum() >= horizon
            assert removed[1:].sum() < horizon

    def test_too_short_record_is_unusable(self, caplog):
        rec = RRRecord("r", np.full(10, 600.0), "VTA", "p")
        with caplog.at_level(logging.WARNING):
            assert prepare_records([rec], 60000.0) == []
        assert len(caplog.messages) == 1 and "'r'" in caplog.messages[0]

    @pytest.mark.parametrize("horizon", [180000.0, 1e9, np.inf])
    def test_horizon_reaching_the_record_start_excludes_it(self, horizon, caplog):
        rec = RRRecord("r", np.full(300, 600.0), "VTA", "p")  # 180000 ms in all
        with caplog.at_level(logging.WARNING):
            assert prepare_records([rec], horizon) == []
        assert caplog.messages == [f"excluding record 'r': 0 beats remain before the {horizon:g} ms boundary (need 250)"]

    def test_nan_horizon_keeps_no_record(self, caplog):
        # a NaN horizon is not "<= 0", so it cuts rather than keeping the final minute
        rec = RRRecord("r", np.full(400, 700.0), "VTA", "p")
        with caplog.at_level(logging.WARNING):
            assert prepare_records([rec], float("nan")) == []
        assert len(caplog.messages) == 1


class TestPrepareRecords:
    def test_short_records_excluded_with_warning(self, caplog):
        long_rec = RRRecord("keep", np.full(400, 700.0), "VTA", "p1")
        short_rec = RRRecord("drop", np.full(120, 700.0), "VTA", "p2")
        with caplog.at_level(logging.WARNING):
            kept = prepare_records([long_rec, short_rec], horizon_ms=60000.0)
        assert [r.record_id for r in kept] == ["keep"]
        assert any("drop" in msg for msg in caplog.messages)

    def test_floor_keeps_exactly_min_beats(self, caplog):
        # a 60 s horizon cuts 100 beats of 600 ms, leaving 250 and 249
        edge = RRRecord("edge", np.full(350, 600.0), "VTA", "p1")
        under = RRRecord("under", np.full(349, 600.0), "VTA", "p2")
        assert MIN_BEATS == 250
        with caplog.at_level(logging.WARNING):
            kept = prepare_records([edge, under], horizon_ms=60000.0)
        assert [(r.record_id, len(r)) for r in kept] == [("edge", 250)]
        assert len(caplog.messages) == 1
        assert caplog.messages[0].startswith("excluding record 'under': 249 beats remain")
        assert caplog.messages[0].endswith("(need 250)")

    def test_both_classes_truncated_by_default(self, tacho_dataset, prepared_records):
        records, _ = prepared_records
        assert records, "fixture dataset should survive preparation"
        raw = {r.record_id: r.intervals_ms for r in load_dataset(*tacho_dataset)[0]}
        assert {r.label for r in records} == {"VTA", "Control"}
        for rec in records:
            full = raw[rec.record_id]
            assert len(rec) < len(full)
            np.testing.assert_array_equal(rec.intervals_ms, full[: len(rec)])
            assert full[len(rec):].sum() >= 60000.0
