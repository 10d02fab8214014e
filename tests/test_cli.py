"""Tests for the command-line interface."""

import json

import pytest

import repro
from repro.batch.engine import BatchJob, BatchMapper
from repro.cli import build_parser, main
from repro.experiments.networks import paper_network
from repro.ilp.result import SolveStatus
from repro.mapping.io import load_mapping
from repro.mca.architecture import heterogeneous_architecture
from repro.snn.generators import random_network
from repro.snn.io import save_network


@pytest.fixture
def network_file(tmp_path):
    net = random_network(14, 28, seed=44, max_fan_in=6, name="cli-net")
    path = tmp_path / "net.json"
    save_network(net, path)
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_map_defaults(self):
        args = build_parser().parse_args(["map", "net.json"])
        assert args.output == "mapping.json"
        assert not args.homogeneous


class TestBench:
    def test_bench_parser_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.benches == []
        assert not args.trajectory_only

    def test_bench_accepts_names(self):
        args = build_parser().parse_args(["bench", "ilp", "simulator"])
        assert args.benches == ["ilp", "simulator"]

    def test_bench_outside_repo_fails_cleanly(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench"]) == 2
        assert "benchmarks/" in capsys.readouterr().err

    def test_bench_rejects_unknown_bench(self, monkeypatch, tmp_path, capsys):
        (tmp_path / "benchmarks").mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "no-such-bench"]) == 2
        assert "unknown bench" in capsys.readouterr().err


class TestInspect:
    def test_prints_statistics(self, network_file, capsys):
        assert main(["inspect", str(network_file)]) == 0
        out = capsys.readouterr().out
        assert "neurons" in out
        assert "gini (incoming)" in out
        assert "depth (synapses)" in out


class TestBatch:
    def test_batch_maps_many_networks(self, tmp_path, capsys):
        paths = []
        for i in range(2):
            net = random_network(10, 20, seed=70 + i, max_fan_in=5, name=f"b{i}")
            path = tmp_path / f"b{i}.json"
            save_network(net, path)
            paths.append(str(path))
        out_dir = tmp_path / "maps"
        code = main(
            ["batch", *paths, "--homogeneous", "--dimension", "8",
             "--time-limit", "3", "-o", str(out_dir)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "b0" in out and "b1" in out
        assert sorted(p.name for p in out_dir.glob("*.json")) == [
            "b0.mapping.json", "b1.mapping.json",
        ]

    def test_batch_deduplicates_same_basename_inputs(self, tmp_path, capsys):
        """net.json from two directories must not collide."""
        paths = []
        for sub in ("a", "b"):
            net = random_network(10, 20, seed=71, max_fan_in=5, name=sub)
            (tmp_path / sub).mkdir()
            path = tmp_path / sub / "net.json"
            save_network(net, path)
            paths.append(str(path))
        code = main(
            ["batch", *paths, "--homogeneous", "--dimension", "8",
             "--time-limit", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "net " in out or "net\t" in out or "net  " in out
        assert "net-2" in out


class TestMapAndSimulate:
    def test_map_writes_valid_mapping(self, network_file, tmp_path, capsys):
        out_path = tmp_path / "mapping.json"
        code = main(
            ["map", str(network_file), "-o", str(out_path), "--time-limit", "5"]
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["assignment"]
        assert "area stage" in capsys.readouterr().out

    def test_map_homogeneous_with_snu(self, network_file, tmp_path, capsys):
        out_path = tmp_path / "mapping.json"
        code = main(
            [
                "map", str(network_file),
                "-o", str(out_path),
                "--homogeneous", "--dimension", "8",
                "--snu", "--time-limit", "5",
            ]
        )
        assert code == 0
        assert "SNU stage" in capsys.readouterr().out

    def test_simulate_round_trip(self, network_file, tmp_path, capsys):
        out_path = tmp_path / "mapping.json"
        main(["map", str(network_file), "-o", str(out_path), "--time-limit", "4"])
        code = main(["simulate", str(out_path), "--duration", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "global packets" in out
        assert "energy estimate" in out


class TestOneStageRunner:
    """`repro map`, `repro batch` and `repro.quick_map` run one pipeline."""

    @pytest.fixture
    def twin_a(self, tmp_path):
        network = paper_network("A", scale=0.1)
        path = tmp_path / "A.json"
        save_network(network, path)
        return network, path

    def test_map_quick_map_and_batch_mapper_agree(self, twin_a, tmp_path):
        network, path = twin_a
        out = tmp_path / "map.json"
        assert main(["map", str(path), "-o", str(out), "--time-limit", "10"]) == 0
        job = BatchJob(
            "A",
            network,
            heterogeneous_architecture(network.num_neurons),
            area_time_limit=10.0,
        )
        (record,) = BatchMapper().map_all([job])
        assert record.final().solve_result.status is SolveStatus.OPTIMAL
        quick = repro.quick_map(network, time_limit=10.0)
        assert load_mapping(out).assignment == record.final().mapping.assignment
        assert quick.assignment == record.final().mapping.assignment

    def test_map_snu_and_batch_snu_write_the_same_mapping(self, twin_a, tmp_path):
        _, path = twin_a
        out = tmp_path / "map.json"
        flags = ["--time-limit", "10", "--snu"]
        assert main(["map", str(path), "-o", str(out), *flags]) == 0
        assert main(["batch", str(path), "-o", str(tmp_path), *flags]) == 0
        batch = load_mapping(tmp_path / "A.mapping.json")
        assert load_mapping(out).assignment == batch.assignment

    def test_unmappable_network_exits_1_without_a_traceback(
        self, tmp_path, capsys
    ):
        path = tmp_path / "C.json"
        save_network(paper_network("C", scale=0.12), path)  # fan-in 11
        out = tmp_path / "map.json"
        code = main(["map", str(path), "-o", str(out),
                     "--homogeneous", "--dimension", "8"])
        assert code == 1
        err = capsys.readouterr().err
        assert "fan-in 11 exceeds" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestExhibitsForwarding:
    def test_table2_via_cli(self, capsys):
        assert main(["exhibits", "--exhibit", "table2"]) == 0
        assert "32x32" in capsys.readouterr().out


class TestDse:
    TINY = ["--networks", "C", "--scale", "0.1", "--profiles", "uniform",
            "--dimensions", "12", "--no-heterogeneous", "--time-limit", "4"]

    def test_dse_parser_defaults(self):
        args = build_parser().parse_args(["dse"])
        assert args.driver == "adaptive"
        assert args.networks == ["C", "E"]
        assert args.budget_fraction == 0.5

    def test_grid_sweep_emits_frontier_and_resumes(self, tmp_path, capsys):
        store = tmp_path / "runs.jsonl"
        summary = tmp_path / "frontier.json"
        code = main(["dse", "--driver", "grid", "--store", str(store),
                     "--json", str(summary), *self.TINY])
        assert code == 0
        out = capsys.readouterr().out
        assert "non-dominated" in out
        assert "2 scenario(s)" in out
        payload = json.loads(summary.read_text())
        assert payload["driver"] == "grid"
        assert payload["frontier"]
        assert payload["ilp_solves"] > 0

        # Same store, same space: everything comes back without a solve.
        assert main(["dse", "--driver", "grid", "--store", str(store),
                     *self.TINY]) == 0
        out = capsys.readouterr().out
        assert "resuming past" in out
        assert "0 ILP solve(s)" in out

    def test_adaptive_sweep_runs(self, capsys):
        assert main(["dse", "--driver", "adaptive", *self.TINY]) == 0
        assert "[adaptive]" in capsys.readouterr().out

    def test_partial_failure_fails_the_command(self, capsys):
        # dimension 4 cannot host C@0.1 (fan-in 8): one of the two pools
        # fails, so the sweep must exit non-zero for CI visibility.
        code = main(["dse", "--driver", "grid", "--networks", "C",
                     "--scale", "0.1", "--profiles", "uniform",
                     "--dimensions", "4", "12", "--no-heterogeneous",
                     "--no-snu", "--time-limit", "4"])
        assert code == 1
        out = capsys.readouterr().out
        assert "scenario(s) failed" in out
        assert "fan-in" in out
