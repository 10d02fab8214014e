"""CLI wiring for `repro serve` / `repro submit`.

The daemon process itself is exercised end to end by the CI
``service-smoke`` job; here `submit` runs against the in-process daemon
fixture and `serve` is checked at the parser level.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main

pytestmark = pytest.mark.service


class TestParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8100
        assert args.workers == 1
        assert args.store is None
        assert "portfolio" not in vars(args)

    def test_serve_fleet_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.fleet == 0
        assert args.journal is None
        assert args.max_queue is None
        assert args.lease_ttl == 15.0
        assert args.heartbeat_interval == 3.0
        assert args.max_attempts == 3
        assert not hasattr(args, "store_shards")  # one store layout
        assert args.drain_timeout == 20.0

    def test_serve_fleet_flags_parse(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--fleet",
                "4",
                "--ledger",
                "/tmp/ledger.jsonl",
                "--max-queue",
                "32",
                "--lease-ttl",
                "8",
                "--heartbeat-interval",
                "1",
                "--max-attempts",
                "5",
                "--drain-timeout",
                "3",
            ]
        )
        assert args.fleet == 4
        assert args.journal == "/tmp/ledger.jsonl"
        assert args.max_queue == 32
        assert args.lease_ttl == 8.0
        assert args.heartbeat_interval == 1.0
        assert args.max_attempts == 5
        assert args.drain_timeout == 3.0

    def test_submit_defaults(self):
        args = build_parser().parse_args(["submit"])
        assert args.url == "http://127.0.0.1:8100"
        assert args.tier == "ilp"
        assert args.stages == ["area"]
        assert not args.stream
        assert args.retries == 0

    def test_submit_rejects_unknown_axis_values(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "--network", "Z"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "--tier", "quantum"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "--stages", "quantum"])


class TestServeWiring:
    def test_ledger_reaches_the_in_process_daemon(
        self, tmp_path, monkeypatch, tiny_scenario
    ):
        """``--ledger`` without ``--fleet`` is honoured, not dropped: it is
        the second spelling of ``--journal``, the one job journal."""
        import signal

        from repro.service import daemon
        from repro.jsonlio import read_jsonl
        from repro.service.wire import JobSpec

        served = []

        def fake_run_server(service, server) -> None:
            served.append(service)
            server.server_close()

        monkeypatch.setattr(signal, "signal", lambda *args: None)
        monkeypatch.setattr(daemon, "run_server", fake_run_server)
        ledger = tmp_path / "ledger.jsonl"
        assert main(["serve", "--port", "0", "--ledger", str(ledger)]) == 0
        (service,) = served
        job = service.submit(JobSpec(scenarios=(tiny_scenario,)))
        service.stop(wait=True)
        assert [record["job"] for record in read_jsonl(ledger)] == [job.id]

    def test_serve_rejects_jobs(self, monkeypatch, capsys):
        """``serve`` has no ``--jobs``: every worker, thread or process,
        runs each solve itself, in the process that traces it."""
        from repro.service import daemon

        built = []
        monkeypatch.setattr(
            daemon, "MappingService", lambda *a, **kw: built.append(kw)
        )
        for argv in (["--jobs", "3"], ["--fleet", "2", "--jobs", "3"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["serve", "--port", "0", *argv])
            assert excinfo.value.code == 2
            assert "--jobs" in capsys.readouterr().err
        assert built == []

    def test_journal_and_ledger_spell_one_setting(self):
        """Both flags set the one journal path; the last one wins."""
        parse = build_parser().parse_args
        assert parse(["serve", "--ledger", "l.jsonl"]).journal == "l.jsonl"
        args = parse(["serve", "--journal", "j.jsonl", "--ledger", "l.jsonl"])
        assert args.journal == "l.jsonl"
        assert not hasattr(args, "ledger")

    def test_restart_through_ledger_spelling_keeps_the_quota_charged(
        self, tmp_path, monkeypatch, tiny_scenario
    ):
        """A job replayed after a restart still occupies its client's
        in-flight slot, so its eventual terminal event releases a slot
        that was really charged."""
        import signal

        from repro.service import daemon
        from repro.service.wire import JobSpec

        served = []

        def fake_run_server(service, server) -> None:
            served.append(service)
            server.server_close()

        monkeypatch.setattr(signal, "signal", lambda *args: None)
        monkeypatch.setattr(daemon, "run_server", fake_run_server)
        argv = ["serve", "--port", "0", "--max-inflight-per-client", "1"]
        argv += ["--ledger", str(tmp_path / "ledger.jsonl")]
        assert main(argv) == 0
        first = served.pop()
        first.submit(JobSpec(scenarios=(tiny_scenario,), client="a"))
        first.stop(wait=True)

        assert main(argv) == 0
        second = served.pop()
        try:
            assert second.admission.in_flight("a") == 1
        finally:
            second.stop(wait=True)


class TestSubmitEndToEnd:
    def _url(self, live_service) -> str:
        _, client = live_service
        return client.base_url

    def test_submit_waits_and_reports(self, live_service, capsys):
        status = main(
            [
                "submit",
                "--url",
                self._url(live_service),
                "--network",
                "C",
                "--scale",
                "0.1",
                "--homogeneous",
                "--dimension",
                "12",
                "--time-limit",
                "5",
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "submitted job-" in out
        assert "Cx0.1-uniform/homo12/area" in out
        assert "done" in out

    def test_submit_stream_prints_ndjson_events(self, live_service, capsys):
        status = main(
            [
                "submit",
                "--url",
                self._url(live_service),
                "--network",
                "C",
                "--scale",
                "0.1",
                "--homogeneous",
                "--dimension",
                "12",
                "--tier",
                "greedy",
                "--stream",
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        events = [
            json.loads(line)["event"]
            for line in out.splitlines()
            if line.startswith("{")
        ]
        assert events[0] == "queued"
        assert "result" in events
        assert events[-1] == "done"

    def test_submit_spec_file_and_json_output(
        self, live_service, tiny_scenario, tmp_path, capsys
    ):
        spec_path = tmp_path / "job.json"
        spec_path.write_text(
            json.dumps({"scenario": tiny_scenario.payload(), "time_limit": 5.0})
        )
        out_path = tmp_path / "detail.json"
        status = main(
            [
                "submit",
                "--url",
                self._url(live_service),
                "--spec",
                str(spec_path),
                "--json",
                str(out_path),
            ]
        )
        assert status == 0
        detail = json.loads(out_path.read_text())
        assert detail["status"] == "done"
        assert detail["results"][0]["scenario"] == tiny_scenario.name

    def test_submit_against_no_server_exits_2(self, capsys):
        status = main(
            ["submit", "--url", "http://127.0.0.1:9", "--timeout", "2"]
        )
        assert status == 2
        assert "service error" in capsys.readouterr().err

    def test_submit_invalid_time_limit_exits_2_cleanly(self, capsys):
        status = main(["submit", "--time-limit", "0"])
        assert status == 2
        assert "invalid submission" in capsys.readouterr().err

    def test_failed_job_exits_1(self, live_service, tmp_path, capsys):
        """An unknown Table-I twin fails scenario-side, not wire-side."""
        _, client = live_service
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(
            json.dumps(
                {
                    "scenario": {
                        "kind": "scenario",
                        "workload": {"network": "Z", "scale": 0.1},
                    }
                }
            )
        )
        status = main(
            ["submit", "--url", client.base_url, "--spec", str(spec_path)]
        )
        assert status == 1
        assert "error" in capsys.readouterr().out

    def test_stream_drop_exits_3(self, live_service, monkeypatch, capsys):
        """A dropped stream is exit 3 — the job was accepted, only the
        watch broke — distinct from exit 2 (service/spec errors).  The
        plain mode waits on the same stream, so it exits 3 too."""
        from repro.service.client import ServiceClient, StreamInterrupted

        def dropped_stream(self, job_id, keepalives=False, timeout=None):
            raise StreamInterrupted(f"stream of job {job_id} dropped mid-job")
            yield  # pragma: no cover - makes this a generator

        monkeypatch.setattr(ServiceClient, "stream", dropped_stream)
        for mode in (["--stream"], []):
            status = main(
                [
                    "submit",
                    "--url",
                    self._url(live_service),
                    "--tier",
                    "greedy",
                    *mode,
                ]
            )
            err = capsys.readouterr().err
            assert status == 3, mode
            assert "stream interrupted" in err
            assert "may still finish" in err

    @pytest.mark.parametrize(
        "spec", [[], [{"scenario": {"kind": "scenario"}}], 3, "C", None]
    )
    @pytest.mark.parametrize("priority", [[], ["--priority", "high"]])
    def test_non_object_spec_exits_2(self, tmp_path, capsys, spec, priority):
        """A spec file must hold a JSON object; anything else is a bad
        submission (exit 2), not a crash or a failed job (exit 1)."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        status = main(
            [
                "submit",
                "--url",
                "http://127.0.0.1:9",
                "--spec",
                str(spec_path),
                *priority,
            ]
        )
        err = capsys.readouterr().err
        assert status == 2
        assert "invalid submission" in err
        assert "must hold a JSON object" in err
