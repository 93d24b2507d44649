"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.graph import cycle_graph, scc_ladder, write_edge_list, write_matrix_market


@pytest.fixture
def graph_file(tmp_path):
    p = tmp_path / "ladder.mtx"
    write_matrix_market(p, scc_ladder(10))
    return str(p)


class TestScc:
    def test_basic(self, graph_file, capsys):
        assert main(["scc", graph_file]) == 0
        out = capsys.readouterr().out
        assert "SCCs:             10" in out
        assert "model runtime" in out

    def test_all_algorithms(self, graph_file, capsys):
        for algo in ("tarjan", "gpu-scc", "ispan", "fb", "fb-trim"):
            assert main(["scc", graph_file, "--algo", algo]) == 0
            assert "SCCs:             10" in capsys.readouterr().out

    def test_verify_and_device(self, graph_file, capsys):
        assert main(["scc", graph_file, "--verify", "--device", "Titan V"]) == 0
        out = capsys.readouterr().out
        assert "Titan V" in out
        assert "match Tarjan" in out

    def test_wall_timing(self, graph_file, capsys):
        assert main(["scc", graph_file, "--time", "--repeats", "3"]) == 0
        assert "wall runtime" in capsys.readouterr().out

    def test_labels_output(self, graph_file, tmp_path, capsys):
        out_file = tmp_path / "labels.txt"
        assert main(["scc", graph_file, "--output", str(out_file)]) == 0
        labels = np.loadtxt(out_file, dtype=np.int64)
        assert labels.size == 20

    def test_edge_list_input(self, tmp_path, capsys):
        p = tmp_path / "c.edges"
        write_edge_list(p, cycle_graph(7))
        assert main(["scc", str(p)]) == 0
        assert "SCCs:             1" in capsys.readouterr().out

    def test_unknown_extension(self, tmp_path):
        p = tmp_path / "g.weird"
        p.write_text("0 1\n")
        with pytest.raises(SystemExit):
            main(["scc", str(p)])

    def test_forced_format(self, tmp_path, capsys):
        p = tmp_path / "g.weird"
        write_edge_list(p, cycle_graph(5))
        assert main(["scc", str(p), "--format", "edges"]) == 0


class TestStats:
    def test_stats(self, graph_file, capsys):
        assert main(["stats", graph_file]) == 0
        out = capsys.readouterr().out
        assert "sccs       10" in out
        assert "dag_depth  10" in out

    def test_no_depth(self, graph_file, capsys):
        assert main(["stats", graph_file, "--no-depth"]) == 0
        assert "dag_depth  0" in capsys.readouterr().out


class TestGen:
    def test_gen_powerlaw(self, tmp_path, capsys):
        out = tmp_path / "g.mtx"
        assert main(
            ["gen", "powerlaw", "flickr", str(out), "--scale", "0.002"]
        ) == 0
        assert out.exists()
        assert "planted" in capsys.readouterr().out

    def test_gen_mesh(self, tmp_path, capsys):
        out = tmp_path / "m.edges"
        assert main(
            ["gen", "mesh", "beam-hex", str(out), "--scale", "0.08"]
        ) == 0
        assert out.exists()

    def test_gen_unknown_mesh(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown mesh"):
            main(["gen", "mesh", "sphere", str(tmp_path / "x.mtx")])

    def test_gen_roundtrip_scc_count(self, tmp_path, capsys):
        out = tmp_path / "g.mtx"
        main(["gen", "powerlaw", "cage14", str(out), "--scale", "0.002"])
        capsys.readouterr()
        main(["scc", str(out), "--verify"])
        assert "SCCs:             1" in capsys.readouterr().out


class TestMisc:
    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "A100" in out and "Xeon" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "toroid-hex", "--ordinates", "2", "--scale", "0.12"]) == 0
        out = capsys.readouterr().out
        assert "residual" in out

    def test_bench_table3_smoke(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        # keep it fast: run table3 through the CLI at the default scale
        assert main(["bench", "table3"]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_no_command_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestEngineSelection:
    @pytest.mark.parametrize("engine", ["sync", "async", "atomic", "frontier"])
    def test_scc_engine_flag(self, graph_file, engine, capsys):
        assert main(["scc", graph_file, "--engine", engine, "--verify"]) == 0
        assert "SCCs" in capsys.readouterr().out

    def test_run_algorithm_rejects_engine_for_baselines(self):
        from repro.bench.runners import run_algorithm
        from repro.device.spec import A100
        from repro.errors import AlgorithmError

        with pytest.raises(AlgorithmError):
            run_algorithm(cycle_graph(4), "fb", device=A100, engine="frontier")


class TestDistributedCli:
    def test_distributed_runs(self, graph_file, capsys):
        assert main(["distributed", graph_file, "--ranks", "4"]) == 0
        out = capsys.readouterr().out
        assert "ecl-scc" in out and "fb-trim" in out and "supersteps" in out

    def test_random_partition_flag(self, graph_file, capsys):
        assert main(
            ["distributed", graph_file, "--ranks", "4", "--random-partition"]
        ) == 0
        assert "edge cut" in capsys.readouterr().out

    def test_randomize_ids_flag(self, graph_file, capsys):
        assert main(["scc", graph_file, "--randomize-ids", "--verify"]) == 0
        assert "SCCs:             10" in capsys.readouterr().out


class TestSeedEverywhere:
    def test_every_subcommand_accepts_seed(self):
        """--seed comes from one shared parent parser: every subcommand
        must parse it and default it to 0."""
        from repro.cli import build_parser

        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if isinstance(a, __import__("argparse")._SubParsersAction)
        )
        assert set(sub.choices) >= {
            "scc", "stats", "gen", "bench", "trace", "dynamic", "chaos",
            "serve", "devices", "sweep", "distributed", "profile",
        }
        for name, sp in sub.choices.items():
            flags = {f for a in sp._actions for f in a.option_strings}
            assert "--seed" in flags, f"{name} lost --seed"
            defaults = {
                a.dest: a.default for a in sp._actions if a.dest == "seed"
            }
            assert defaults == {"seed": 0}, f"{name} changed the default"

    def test_seed_threads_through(self, graph_file, capsys):
        assert main(["scc", graph_file, "--seed", "3"]) == 0
        capsys.readouterr()
        assert main(["devices", "--seed", "7"]) == 0
