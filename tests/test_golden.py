"""Trace bits of named sessions against ``golden_bits.json``.

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


def test_record_names_exactly_the_golden_sessions():
    names = {
        golden.session_name("preset", condition, seed)
        for seed in golden.C7_SEEDS
        for condition in golden.CONDITIONS
    }
    names.add(golden.session_name("preset", "without", golden.MANUAL_SEED))
    names.update(
        golden.session_name("crest", condition, seed)
        for seed in golden.CREST_SEEDS
        for condition in golden.CONDITIONS
    )
    record = golden.load()
    assert set(record["sessions"]) == names
    assert set(record["csv_sha256"]) == set(golden.CSV_SESSIONS)
    assert set(record["platform"]) == set(golden.platform_info())
