"""Concurrent-writer and crash-tolerance regression tests for RunStore.

The regression of record: the store used to re-open the JSONL file per
append, so a crashed writer's torn final line silently merged with the
next writer's entry (losing both).  The store now keeps one locked
append handle and heals torn tails before every append.  Readers keep a
byte offset, so a reload parses only what siblings appended since.
"""

from __future__ import annotations

import json
import multiprocessing as mp

import pytest

from repro.dse import store as store_module
from repro.dse.store import TIER_ILP, RunEntry, RunStore

pytestmark = pytest.mark.dse

OBJECTIVES = {"area": 1.0, "energy": 2.0, "latency": 3.0}


def _entry(fingerprint: str, **kwargs) -> RunEntry:
    return RunEntry(
        fingerprint=fingerprint,
        tier=kwargs.pop("tier", TIER_ILP),
        scenario={"kind": "scenario"},
        status=kwargs.pop("status", "ok"),
        objectives=kwargs.pop("objectives", dict(OBJECTIVES)),
        **kwargs,
    )


def _hammer(path: str, writer: int, appends: int) -> None:
    """One writer process: many appends through a single store handle."""
    with RunStore(path) as store:
        for i in range(appends):
            # Long meta padding makes each line span multiple buffered
            # writes, so unlocked writers would interleave visibly.
            store.record(
                _entry(f"w{writer}-{i}", meta={"writer": writer, "pad": "x" * 512})
            )


class TestSingleHandle:
    def test_record_reuses_one_append_handle(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        store.record(_entry("a"))
        first = store._handle
        store.record(_entry("b"))
        assert store._handle is first
        assert first is not None and not first.closed

    def test_close_releases_and_reopens_on_demand(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        store.record(_entry("a"))
        store.close()
        assert store._handle is None
        store.record(_entry("b"))  # reopens transparently
        assert len(RunStore(path)) == 2

    def test_context_manager_closes(self, tmp_path):
        with RunStore(tmp_path / "runs.jsonl") as store:
            store.record(_entry("a"))
            handle = store._handle
        assert handle is not None and handle.closed

    def test_memory_store_records_without_a_handle(self):
        store = RunStore()
        store.record(_entry("a"))
        assert store._handle is None


class TestCrashTornTail:
    def test_append_after_crashed_writer_heals_the_torn_line(self, tmp_path):
        """A live writer must not merge its entry into a torn tail."""
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        store.record(_entry("before"))
        # A sibling process crashed mid-append: its partial line has no
        # terminating newline.
        with path.open("ab") as raw:
            raw.write(b'{"format": 1, "fingerprint": "torn-victi')
        store.record(_entry("after"))

        loaded = RunStore(path)
        assert loaded.get("before") is not None
        assert loaded.get("after") is not None  # would be lost pre-fix
        assert loaded.skipped_lines == 1  # exactly the torn line
        # Every surviving line is intact JSON.
        lines = [ln for ln in path.read_text().splitlines() if ln]
        parsed = 0
        for line in lines:
            try:
                json.loads(line)
                parsed += 1
            except json.JSONDecodeError:
                pass
        assert parsed == len(lines) - 1

    def test_torn_tail_of_an_empty_store_is_healed_too(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_bytes(b'{"torn')
        store = RunStore(path)
        store.record(_entry("only"))
        loaded = RunStore(path)
        assert loaded.get("only") is not None
        assert loaded.skipped_lines == 1


class TestConcurrentWriters:
    def test_parallel_processes_share_one_file_without_torn_lines(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        writers, appends = 4, 25
        ctx = mp.get_context("spawn")
        procs = [
            ctx.Process(target=_hammer, args=(str(path), w, appends))
            for w in range(writers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0

        loaded = RunStore(path)
        assert loaded.skipped_lines == 0
        assert len(loaded) == writers * appends
        for line in path.read_text().splitlines():
            json.loads(line)  # every line parses — no interleaved writes

    def test_reload_picks_up_sibling_appends(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        mine = RunStore(path)
        mine.record(_entry("mine"))
        sibling = RunStore(path)
        sibling.record(_entry("theirs"))
        assert mine.get("theirs") is None  # not yet visible
        assert mine.reload() == 2
        assert mine.get("theirs") is not None
        assert mine.get("mine") is not None  # own entries survive reload


class TestTailReload:
    def test_reload_parses_only_the_siblings_new_line(self, tmp_path, monkeypatch):
        path = tmp_path / "runs.jsonl"
        with RunStore(path) as sibling:
            for i in range(10):
                sibling.record(_entry(f"old-{i}"))
            mine = RunStore(path)
            sibling.record(_entry("new"))
        parsed = []
        real_parse = store_module._parse_entry
        monkeypatch.setattr(
            store_module,
            "_parse_entry",
            lambda line: parsed.append(line) or real_parse(line),
        )
        assert mine.reload() == 11
        assert len(parsed) == 1
        assert mine.get("new") is not None

    def test_reload_after_own_record_parses_nothing(self, tmp_path, monkeypatch):
        mine = RunStore(tmp_path / "runs.jsonl")
        for i in range(5):
            mine.record(_entry(f"own-{i}"))
        parsed = []
        real_parse = store_module._parse_entry
        monkeypatch.setattr(
            store_module,
            "_parse_entry",
            lambda line: parsed.append(line) or real_parse(line),
        )
        assert mine.reload() == 5
        assert parsed == []
        mine.close()

    def test_interleaved_writers_still_fold_in_each_other(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        a, b = RunStore(path), RunStore(path)
        a.record(_entry("a1"))
        b.record(_entry("b1"))
        a.record(_entry("a2"))  # B's line sits unread before this one
        assert a.reload() == 3
        assert a.get("b1") is not None
        assert b.reload() == 3
        assert b.get("a1") is not None and b.get("a2") is not None
        a.close()
        b.close()

    def test_sibling_append_after_a_torn_tail_is_visible(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        mine = RunStore(path)
        mine.record(_entry("before"))
        with path.open("ab") as raw:  # a sibling crashed mid-append
            raw.write(b'{"format": 1, "fingerprint": "torn-victi')
        mine.reload()  # reads past the torn tail
        with RunStore(path) as sibling:
            sibling.record(_entry("after"))  # heals, then appends
        mine.reload()
        assert mine.get("before") is not None
        assert mine.get("after") is not None
        assert mine.skipped_lines == 1

    def test_a_shrunken_file_is_re_read_from_the_start(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        mine = RunStore(path)
        for name in ("a", "b", "c"):
            mine.record(_entry(name))
        assert mine.reload() == 3  # the offset is now past all three
        mine.close()
        # Rewritten shorter behind the store's back (a manual compaction).
        path.write_text(
            json.dumps(_entry("z").to_json(), sort_keys=True) + "\n"
        )
        assert mine.reload() == 1
        assert mine.get("z") is not None
        assert mine.get("a") is None

    def test_directory_is_rejected_with_the_cat_hint(self, tmp_path):
        old = tmp_path / "runs"
        old.mkdir()
        with pytest.raises(ValueError, match=r"cat .*shard-\*\.jsonl > runs\.jsonl"):
            RunStore(old)
