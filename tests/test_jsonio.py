"""The one JSONL reader and the journal primitive in ``repro._jsonio``."""

from pathlib import Path

import pytest

from repro._jsonio import CheckpointMismatchError, Journal, read_jsonl

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
IDENTITY = {"version": 2, "key": "k", "n_tasks": 3, "seed": 0}


class TestReadJsonl:
    def test_intact_file(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text('{"a":1}\n\n{"b":2}\n')
        assert read_jsonl(path) == ([{"a": 1}, {"b": 2}], None, path.stat().st_size)

    def test_torn_tail_and_intact_prefix(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text('{"a":1}\n{"b":2}\n{"c":')
        assert read_jsonl(path) == ([{"a": 1}, {"b": 2}], '{"c":', len('{"a":1}\n{"b":2}\n'))

    def test_reading_stops_at_a_line_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text('{"a":1}\n[1, 2]\n{"b":2}\n')
        assert read_jsonl(path) == ([{"a": 1}], "[1, 2]", len('{"a":1}\n'))

    def test_a_final_line_without_newline_is_complete(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text('{"a":1}\n{"b":2}')
        assert read_jsonl(path) == ([{"a": 1}, {"b": 2}], None, path.stat().st_size)


class TestJournal:
    def test_fresh_journal_writes_the_header(self, tmp_path):
        journal = Journal(tmp_path / "deep" / "j.jsonl", IDENTITY, {"python": "3.11"})
        assert journal.load() == []
        records, torn, _ = read_jsonl(journal.path)
        assert records == [
            {"kind": "repro-sweep-checkpoint", **IDENTITY, "manifest": {"python": "3.11"}}
        ]
        assert torn is None

    def test_append_after_a_torn_tail_cuts_it_off(self, tmp_path):
        path = tmp_path / "j.jsonl"
        Journal(path, IDENTITY).load()
        path.write_text(path.read_text() + '{"x":1}\n{"y":')
        journal = Journal(path, IDENTITY)
        assert journal.load() == [{"x": 1}]
        journal.append(['{"z":3}'])
        assert read_jsonl(path)[0][1:] == [{"x": 1}, {"z": 3}]

    def test_append_terminates_a_last_line_without_newline(self, tmp_path):
        path = tmp_path / "j.jsonl"
        Journal(path, IDENTITY).load()
        path.write_text(path.read_text() + '{"x":1}')
        journal = Journal(path, IDENTITY)
        journal.load()
        journal.append(['{"z":3}'])
        assert read_jsonl(path)[0][1:] == [{"x": 1}, {"z": 3}]

    @pytest.mark.parametrize("cut", [1, 20, 34, 40, -2])
    def test_a_torn_header_is_rewritten(self, tmp_path, cut):
        # A crash during a fresh run's first write stored nothing.
        path = tmp_path / "j.jsonl"
        Journal(path, IDENTITY).load()
        header = path.read_bytes()
        path.write_bytes(header[:cut])
        journal = Journal(path, IDENTITY)
        assert journal.load() == []
        assert path.read_bytes() == header
        journal.append(['{"z":3}'])
        assert read_jsonl(path)[0][1:] == [{"z": 3}]

    @pytest.mark.parametrize(
        "text",
        [
            '{"kind":"repro-sweep-x',
            '{"kind":"other","v":',
            "[1, 2]\n",
            '{"a":1}\n{"kind":',
            # Pretty-printed JSON: its first line "{" is a header prefix.
            '{\n  "kind": 1\n}\n',
            # A whole but corrupt header followed by stored task lines.
            '{"kind":"repro-sweep-checkpoint","version":2,\n{"kind":"point","index":0}\n',
            '{"kind":"repro-sweep-checkpoint",\n',
            '{"kind":"repro-sweep\n',
        ],
    )
    def test_a_file_without_a_journal_header_is_left_alone(self, tmp_path, text):
        path = tmp_path / "j.jsonl"
        path.write_text(text)
        with pytest.raises(CheckpointMismatchError, match="not a sweep checkpoint"):
            Journal(path, IDENTITY).load()
        assert path.read_text() == text

    def test_identity_mismatch_raises_but_the_manifest_is_ignored(self, tmp_path):
        path = tmp_path / "j.jsonl"
        Journal(path, IDENTITY, {"python": "3.11"}).load()
        assert Journal(path, IDENTITY, {"python": "3.13"}).load() == []
        with pytest.raises(CheckpointMismatchError, match="seed is 0, expected 1"):
            Journal(path, {**IDENTITY, "seed": 1}).load()


def test_src_has_one_jsonl_reader():
    # Every JSONL file is read through read_jsonl; a second hand-rolled
    # reader shows up as a JSONDecodeError handler.
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if "JSONDecodeError" in path.read_text(encoding="utf-8")
        and path.name != "_jsonio.py"
        and "_lint" not in path.parts
    ]
    assert offenders == []
