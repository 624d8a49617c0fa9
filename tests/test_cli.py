"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(["run", "4MEM-1", "ME-LREQ"])
        assert args.workload == "4MEM-1"
        assert args.policy == "ME-LREQ"

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "7"])

    @pytest.mark.parametrize("verb", [["figure", "2"], ["submit", "h:1"]])
    def test_cores_without_a_mix_is_a_usage_error(self, verb, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*verb, "--cores", "3"])
        assert exc.value.code == 2
        assert "--cores" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb", [["figure", "2"], ["table2"], ["arena"], ["cloud"]])
    def test_cache_dir_needs_resume(self, verb, tmp_path, capsys):
        cache = tmp_path / "cache"
        with pytest.raises(SystemExit) as exc:
            main([*verb, "--budget", "1000", "--cache-dir", str(cache)])
        assert exc.value.code == 2
        assert "--resume" in capsys.readouterr().err
        assert not cache.exists()


class TestCommands:
    def test_policies(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "ME-LREQ" in out and "HF-RF" in out

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "4MEM-1" in out and "wupwise" in out
        assert "4CLD-1" in out and "kvstore" in out
        # 36 Table 3 mixes + 5 cloud mixes
        assert out.count("\n") == 41

    def test_profile_one_app(self, capsys):
        assert main(["profile", "--app", "eon", "--budget", "3000"]) == 0
        out = capsys.readouterr().out
        assert "eon" in out

    def test_run_small(self, capsys):
        assert main(["run", "2MEM-1", "LREQ", "--budget", "3000"]) == 0
        out = capsys.readouterr().out
        assert "SMT speedup" in out
        assert "unfairness" in out
