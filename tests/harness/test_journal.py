"""On-disk sweep checkpointing: integrity, resume, mismatch."""

import json

import pytest

from repro.harness import (
    JournalMismatch,
    SweepJournal,
    derive_seed,
)


def record_trials(path, label="sweep", master_seed=7, count=4,
                  indices=(0, 1, 2)):
    journal = SweepJournal(path)
    journal.open(label, master_seed, count)
    for index in indices:
        journal.record(index, 0, derive_seed(master_seed, index, label),
                       {"index": index, "value": index * 10})
    journal.close()
    return path


def test_roundtrip(tmp_path):
    path = record_trials(tmp_path / "sweep.journal")
    journal = SweepJournal(path)
    completed = journal.open("sweep", 7, 4)
    journal.close()
    assert sorted(completed) == [0, 1, 2]
    attempt, result = completed[1]
    assert attempt == 0
    assert result == {"index": 1, "value": 10}


def test_mismatched_sweep_is_rejected(tmp_path):
    path = record_trials(tmp_path / "sweep.journal")
    for label, master_seed, count in (("other", 7, 4),
                                      ("sweep", 8, 4),
                                      ("sweep", 7, 5)):
        journal = SweepJournal(path)
        with pytest.raises(JournalMismatch):
            journal.open(label, master_seed, count)


def test_torn_tail_discards_suffix(tmp_path):
    path = record_trials(tmp_path / "sweep.journal",
                         indices=(0, 1, 2))
    whole = path.read_bytes()
    with open(path, "a") as fh:
        fh.write('{"kind": "trial", "index"')  # torn write
    journal = SweepJournal(path)
    completed = journal.open("sweep", 7, 4)
    journal.close()
    assert sorted(completed) == [0, 1, 2]
    # Reopening cuts the torn tail off before anything is appended.
    assert path.read_bytes() == whole


def test_records_after_a_torn_resume_stay_visible(tmp_path):
    """Resume after a crash mid-append: every record written by the
    resumed run must be seen by the run after it."""
    path = record_trials(tmp_path / "sweep.journal", indices=(0,))
    with open(path, "a") as fh:
        fh.write('{"kind": "trial", "index": 1, "att')  # half a line
    record_trials(path, indices=(1, 2))  # reopen, then record 1 and 2
    journal = SweepJournal(path)
    completed = journal.open("sweep", 7, 4)
    journal.close()
    assert sorted(completed) == [0, 1, 2]
    assert journal.discarded == 0


def test_corrupt_line_and_its_suffix_are_truncated(tmp_path):
    path = record_trials(tmp_path / "sweep.journal", indices=(0, 1, 2))
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b'"sha256": "', b'"sha256": "0')
    path.write_bytes(b"\n".join(lines))
    journal = SweepJournal(path)
    assert sorted(journal.open("sweep", 7, 4)) == [0]
    journal.close()
    assert path.read_bytes() == b"\n".join(lines[:2]) + b"\n"


def test_a_line_without_its_newline_is_torn(tmp_path):
    path = record_trials(tmp_path / "sweep.journal", indices=(0, 1))
    path.write_bytes(path.read_bytes()[:-1])  # drop the last newline
    journal = SweepJournal(path)
    assert sorted(journal.open("sweep", 7, 4)) == [0]
    journal.record(1, 0, derive_seed(7, 1, "sweep"), "again")
    journal.close()
    journal = SweepJournal(path)
    assert journal.open("sweep", 7, 4)[1] == (0, "again")
    journal.close()


def test_corrupted_payload_is_discarded(tmp_path):
    path = record_trials(tmp_path / "sweep.journal", indices=(0, 1))
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])  # first trial line
    record["sha256"] = "0" * 64
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    journal = SweepJournal(path)
    completed = journal.open("sweep", 7, 4)
    journal.close()
    # Bad digest stops the scan; trial 1 (after it) is gone too.
    assert completed == {}
    assert journal.discarded == 1


def test_wrong_seed_is_discarded(tmp_path):
    path = tmp_path / "sweep.journal"
    journal = SweepJournal(path)
    journal.open("sweep", 7, 4)
    journal.record(0, 0, 12345, "tainted")  # not derive_seed(7, 0, ...)
    journal.close()
    journal = SweepJournal(path)
    assert journal.open("sweep", 7, 4) == {}
    journal.close()
    assert journal.discarded == 1


def test_out_of_range_index_is_discarded(tmp_path):
    path = tmp_path / "sweep.journal"
    journal = SweepJournal(path)
    journal.open("sweep", 7, 2)
    journal.record(5, 0, derive_seed(7, 5, "sweep"), "beyond")
    journal.close()
    journal = SweepJournal(path)
    completed = journal.open("sweep", 7, 2)
    journal.close()
    assert completed == {}


def test_record_requires_open(tmp_path):
    journal = SweepJournal(tmp_path / "x.journal")
    with pytest.raises(Exception):
        journal.record(0, 0, 1, "nope")


def test_context_manager(tmp_path):
    path = tmp_path / "cm.journal"
    with SweepJournal(path) as journal:
        journal.open("s", 1, 1)
        journal.record(0, 0, derive_seed(1, 0, "s"), 42)
    with SweepJournal(path) as journal:
        assert journal.open("s", 1, 1) == {0: (0, 42)}
