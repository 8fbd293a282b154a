"""Tests for repro.cli — the ``spsta`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyze_defaults(self):
        args = build_parser().parse_args(["analyze", "s27"])
        assert args.circuit == "s27"
        assert args.config == "I"
        assert args.trials == 10_000


class TestCommands:
    def test_stats(self, capsys):
        assert main(["stats", "s27"]) == 0
        out = capsys.readouterr().out
        assert "s27" in out
        assert "4 PI" in out

    def test_analyze_benchmark(self, capsys):
        assert main(["analyze", "s27", "--trials", "500"]) == 0
        out = capsys.readouterr().out
        assert "SPSTA" in out and "SSTA" in out and "MC(500)" in out

    def test_analyze_without_mc(self, capsys):
        assert main(["analyze", "s27", "--trials", "0"]) == 0
        out = capsys.readouterr().out
        assert "MC(" not in out

    def test_analyze_config_ii(self, capsys):
        assert main(["analyze", "s27", "--config", "II",
                     "--trials", "0"]) == 0

    def test_analyze_bench_file(self, capsys, tmp_path):
        path = tmp_path / "tiny.bench"
        path.write_text("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
        assert main(["analyze", str(path), "--trials", "200"]) == 0
        out = capsys.readouterr().out
        assert "tiny" in out

    def test_unknown_circuit_exits(self):
        with pytest.raises(SystemExit, match="unknown circuit"):
            main(["analyze", "nonexistent"])

    def test_bad_config_exits(self):
        with pytest.raises(SystemExit, match="config must be"):
            main(["analyze", "s27", "--config", "III"])

    def test_table2_small(self, capsys):
        # Full benchmark list but few trials; keep runtime modest.
        assert main(["table2", "--trials", "200"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Error vs Monte Carlo" in out


class TestHierCommand:
    def test_hier_report(self, capsys):
        assert main(["hier", "s27", "--partitions", "3"]) == 0
        out = capsys.readouterr().out
        assert "partition of s27" in out
        assert "3 partitions" in out

    def test_hier_json_and_compare_flat(self, tmp_path, capsys):
        import json
        path = tmp_path / "hier.json"
        assert main(["hier", "s208", "--partitions", "4",
                     "--compare-flat", "--json", str(path)]) == 0
        report = json.loads(path.read_text())
        assert report["partition"]["n_regions"] == 4
        assert report["complete"] is True
        deltas = report["compare_flat"]["max_endpoint_delta"]
        assert deltas["probability"] == 0.0
        assert deltas["mean"] == 0.0

    def test_hier_cache_roundtrip(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["hier", "s27", "--cache", cache]) == 0
        capsys.readouterr()
        assert main(["hier", "s27", "--cache", cache]) == 0
        out = capsys.readouterr().out
        assert "cache 4 hits / 0 misses" in out

    def test_analyze_partition_matches_flat(self, capsys):
        assert main(["analyze", "s27", "--partition", "3",
                     "--trials", "0"]) == 0
        hier_out = capsys.readouterr().out
        assert "hierarchical: 3 regions" in hier_out
        assert main(["analyze", "s27", "--trials", "0"]) == 0
        flat_out = capsys.readouterr().out
        hier_rows = [line for line in hier_out.splitlines()
                     if "SPSTA" in line or "signal probability" in line]
        flat_rows = [line for line in flat_out.splitlines()
                     if "SPSTA" in line or "signal probability" in line]
        assert hier_rows == flat_rows


class TestConvertGenerateSlack:
    def test_convert_bench_to_verilog_and_back(self, tmp_path, capsys):
        from repro.cli import main
        from repro.netlist.bench import write_bench
        from repro.netlist.benchmarks import benchmark_circuit

        bench_path = tmp_path / "s27.bench"
        bench_path.write_text(write_bench(benchmark_circuit("s27")))
        v_path = tmp_path / "s27.v"
        assert main(["convert", str(bench_path), str(v_path)]) == 0
        back_path = tmp_path / "back.bench"
        assert main(["convert", str(v_path), str(back_path)]) == 0
        from repro.netlist.bench import parse_bench_file
        back = parse_bench_file(back_path)
        assert set(back.gates) == set(benchmark_circuit("s27").gates)

    def test_convert_rejects_unknown_suffix(self, tmp_path):
        from repro.cli import main
        src = tmp_path / "x.bench"
        src.write_text("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
        import pytest as _pytest
        with _pytest.raises(SystemExit, match="unknown output format"):
            main(["convert", str(src), str(tmp_path / "x.xyz")])

    def test_generate_to_stdout(self, capsys):
        from repro.cli import main
        assert main(["generate", "--inputs", "4", "--outputs", "2",
                     "--dffs", "2", "--gates", "20", "--depth", "4"]) == 0
        out = capsys.readouterr().out
        assert "INPUT(" in out and "DFF(" in out

    def test_generate_to_file_parses(self, tmp_path, capsys):
        from repro.cli import main
        from repro.netlist.bench import parse_bench_file
        path = tmp_path / "gen.bench"
        assert main(["generate", "--gates", "30", "--depth", "5",
                     "--output", str(path)]) == 0
        netlist = parse_bench_file(path)
        assert len(netlist.gates) >= 30

    def test_slack_command(self, capsys):
        from repro.cli import main
        assert main(["slack", "s27", "--clock", "5"]) == 0
        out = capsys.readouterr().out
        assert "worst slack" in out
        assert "histogram" in out


class TestOptimizeCommand:
    def test_optimize_report(self, capsys):
        assert main(["optimize", "s298", "--clock-period", "5",
                     "--target-yield", "0.999", "--max-area", "6"]) == 0
        out = capsys.readouterr().out
        assert "yield" in out
        assert "incremental re-timing" in out
        assert "cone gate evaluations" in out

    def test_optimize_json_verify_and_mc(self, tmp_path, capsys):
        import json
        path = tmp_path / "opt.json"
        assert main(["optimize", "s27", "--clock-period", "3.5",
                     "--target-yield", "0.999", "--max-area", "4",
                     "--algebra", "mixture", "--verify-moves",
                     "--mc-validate", "2000", "--seed", "3",
                     "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "verified bit-exact" in out
        assert "MC oracle" in out
        report = json.loads(path.read_text())
        assert report["report"] == "spsta-optimize"
        assert report["metric_after"] >= report["metric_before"]
        assert report["area_cost"] <= 4.0
        assert report["mc_validation"]["trials"] == 2000
        assert report["verified_moves"] == len([
            m for m in report["moves"]]) + len([
                m for m in report["moves"] if not m["accepted"]])
        assert report["recomputed_gates"] <= \
            report["full_pass_equivalent_gates"]
        assert 0 < report["gradient_gates"] <= report["iterations"] * 10

    @pytest.mark.parametrize("flags, message", [
        (["--size-step=-0.5", "--anneal"], "size_step must be > 0"),
        (["--metric", "mean-ksigma", "--k-sigma", "nan"],
         "k_sigma must be finite"),
        (["--max-size", "0.5"], "max_size must be >= 1"),
        (["--max-area=-1"], "max_area must be >= 0"),
    ])
    def test_optimize_bad_option_is_one_error_line(self, capsys, flags,
                                                   message):
        assert main(["optimize", "s27", "--clock-period", "4",
                     *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"spsta optimize: error: {message}")


class TestTestabilityCommand:
    def test_testability(self, capsys):
        from repro.cli import main
        assert main(["testability", "s27"]) == 0
        out = capsys.readouterr().out
        assert "hardest faults" in out
        assert "expected coverage" in out

    def test_testability_with_atpg(self, capsys):
        from repro.cli import main
        assert main(["testability", "s27", "--atpg", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "deterministic test set" in out
