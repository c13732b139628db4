"""Trace bits of named sessions and a compare report's bytes against
``golden_bits.json``.

A difference fails with the sessions that changed and the recorded and
running library versions; it never skips. Regenerate the record with
``PYTHONPATH=src python3 tests/golden.py --write`` when a change alters
bits on purpose, and name the sessions that changed.
"""

import golden


def _check(recorded: dict, running: dict, record: dict) -> None:
    lines = golden.mismatches(recorded, running)
    assert not lines, golden.report(lines, record)


def test_c7_sessions_keep_their_bits(seed_sweep):
    record = golden.load()
    _, _, bits = seed_sweep
    recorded = {name: record["sessions"][name] for name in bits}
    assert len(recorded) == 2 * len(golden.C7_SEEDS)
    _check(recorded, bits, record)


def test_named_sessions_keep_their_bits_and_csv_bytes(tmp_path):
    record = golden.load()
    bits, csv = golden.run_named(str(tmp_path))
    recorded = {name: record["sessions"][name] for name in bits}
    _check(recorded, bits, record)
    _check(record["csv_sha256"], csv, record)


def test_compare_report_keeps_its_bytes(tmp_path):
    record = golden.load()
    _check(record["report_sha256"], golden.report_sha256(str(tmp_path)), record)


def test_record_names_exactly_the_golden_sessions():
    names = {
        golden.session_name("preset", condition, seed)
        for seed in golden.C7_SEEDS
        for condition in golden.CONDITIONS
    }
    names.add(golden.session_name("preset", "without", golden.MANUAL_SEED))
    names.add(golden.session_name("preset_dt2ms", "without", 5))
    names.add(golden.session_name("preset_lag0", "with", 3))
    names.add(golden.session_name("preset_stall", "with", 0))
    names.add(golden.session_name("preset_dt3ms", "with", 0))
    names.add(golden.session_name("sphere_half_turn", "with", 0))
    names.update(
        golden.session_name(golden.OFF_POLE, condition, 0) for condition in golden.CONDITIONS
    )
    names.update(
        golden.session_name("crest", condition, seed)
        for seed in golden.CREST_SEEDS
        for condition in golden.CONDITIONS
    )
    names.add(golden.session_name("crest", "without", golden.MANUAL_SEED))
    record = golden.load()
    assert set(record["sessions"]) == names
    assert set(record["csv_sha256"]) == set(golden.CSV_SESSIONS)
    assert set(record["report_sha256"]) == set(golden.REPORT_FILES)
    assert set(record["platform"]) == set(golden.platform_info())


def test_write_names_the_sessions_it_changes_adds_or_drops():
    bits = {"checksum": "0", "samples": 1, "final_event": [0.001, "timeout"]}
    old = {"sessions": {"a": bits, "b": bits, "c": bits}, "csv_sha256": {"a": "0"},
           "report_sha256": {"x.json": "0", "x.csv": "0"}}
    new = {"sessions": {"a": bits, "b": {**bits, "samples": 2}, "d": bits},
           "csv_sha256": {"a": "1"}, "report_sha256": {"x.json": "1", "x.csv": "0"}}
    assert golden.changes(old, new) == [
        "sessions changed: b", "sessions added: d", "sessions dropped: c",
        "csv_sha256 changed: a", "report_sha256 changed: x.json",
    ]
    assert golden.changes(new, new) == []
    assert golden.changes({}, new) == [
        "sessions added: a", "sessions added: b", "sessions added: d",
        "csv_sha256 added: a", "report_sha256 added: x.csv", "report_sha256 added: x.json",
    ]
