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

    @pytest.mark.parametrize("argv", [
        ["serve", "--sample-every", "0"],
        ["serve", "--sample-every", "-1"],
        ["serve", "--lease", "0"],
        ["serve", "--max-attempts", "0"],
        ["worker", "h:1", "--sample-every", "0"],
        ["worker", "h:1", "--sample-every", "-1"],
        ["worker", "h:1", "--connect-retries", "-1"],
        ["submit", "h:1", "--sample-every", "0"],
        ["serve", "--trace-out", "/nonexistent/c.jsonl"],
        ["serve", "--metrics-out", "/nonexistent/m.jsonl"],
        ["serve", "--prometheus-out", "/nonexistent/p.prom"],
        ["worker", "h:1", "--trace-out", "/nonexistent/w.jsonl"],
        ["submit", "h:1", "--trace-out", "/nonexistent/c.jsonl"],
    ], ids=lambda argv: " ".join(argv))
    def test_service_numbers_that_break_it_are_usage_errors(self, argv,
                                                            capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert argv[-2] in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["table2", "--budget", "0"],
        ["figure", "2", "--cores", "2", "--budget", "0"],
        ["run", "2MEM-1", "HF-RF", "--budget", "-5"],
        ["profile", "--budget", "0"],
        ["submit", "h:1", "--budget", "0"],
        ["figure", "2", "--jobs", "-3"],
        ["figure", "2", "--groups", "FOO"],
        ["submit", "h:1", "--groups", "FOO"],
        ["run", "9MEM-1", "HF-RF"],
        ["profile", "--app", "nosuch"],
        ["run", "2MEM-1", "HF-RF", "--telemetry-csv", "/nonexistent/x.csv"],
        ["run", "2MEM-1", "HF-RF", "--telemetry-out", "/nonexistent/x.jsonl"],
        ["run", "2MEM-1", "HF-RF", "--trace-out", "/nonexistent/x.json"],
        ["run", "2MEM-1", "HF-RF", "--spans-out", "/nonexistent/x.jsonl"],
        ["run", "2MEM-1", "HF-RF", "--profile", "/nonexistent/prof"],
        ["profile", "--profile", "/nonexistent/prof"],
    ], ids=lambda argv: " ".join(argv))
    def test_inputs_that_break_a_verb_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert argv[-2] in capsys.readouterr().err

    @pytest.mark.parametrize("policy", ["nonsense", "FIX-3210", "FIX-00"])
    def test_policy_that_cannot_run_the_mix_is_a_usage_error(self, policy,
                                                             capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "2MEM-1", policy, "--budget", "1000"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert policy in out.err
        assert out.out == ""  # rejected before anything simulated

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

    @pytest.mark.parametrize("policy, profiles", [("HF-RF", 0),
                                                  ("ME-LREQ", 2)])
    def test_run_profiles_me_only_for_policies_that_read_it(
            self, policy, profiles, monkeypatch, capsys):
        from repro.metrics.memory_efficiency import MeProfiler

        calls = []
        real = MeProfiler.profile

        def counting(self, app):
            calls.append(app.code)
            return real(self, app)

        monkeypatch.setattr(MeProfiler, "profile", counting)
        assert main(["run", "2MEM-1", policy, "--budget", "2000"]) == 0
        assert len(calls) == profiles

    def test_capture_leaves_run_results_unchanged(self, capsys):
        argv = ["run", "2MEM-1", "ME-LREQ", "--budget", "3000"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main([*argv, "--spans"]) == 0
        traced = capsys.readouterr().out
        assert traced.startswith(plain)
        assert "latency attribution" in traced[len(plain):]
