"""Tests for the command-line interface."""

import argparse
from pathlib import Path

import pytest

from repro.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def _verbs(parser: argparse.ArgumentParser) -> dict:
    """Top-level verb name -> the option strings its parser declares."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {verb: {opt for action in p._actions
                   for opt in action.option_strings}
            for verb, p in sub.choices.items()}


def _readme_flag_rows() -> list[tuple[str, set[str]]]:
    """``(flag, verbs)`` of every row of README's "All flags" table."""
    lines = README.read_text().split("All flags:", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = []
    for line in lines[start + 2:]:  # past the header and its rule
        if not line.startswith("|"):
            break
        flag_cell, verbs_cell = line.split("|")[1:3]
        flag = flag_cell.strip().strip("`").split()[0]
        rows.append((flag, {v.strip() for v in verbs_cell.split(",")}))
    return rows


#: valid section-flag invocations -> the values the section then reads
_READ_FLAGS = [
    (["figure", "2", "--cores", "2"], {"cores": (2,), "groups": ("MEM",)}),
    (["figure", "3", "--groups", "MIX"], {"groups": ("MIX",)}),
    (["figure", "2"], {"cores": (4,), "groups": ("MEM",)}),
    (["arena"], {"mixes": ("smoke",)}),
    (["submit", "h:1", "cloud", "--mixes", "2core"], {"mixes": ("2core",)}),
]


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
        ["worker", "nohost", "--telemetry"],
        ["worker", "127.0.0.1:0", "--telemetry"],
        ["submit", "nohost", "--status"],
        ["submit", "127.0.0.1:99999", "--status"],
        ["submit", "127.0.0.1:port", "--stop"],
        ["serve", "--port", "99999"],
        ["serve", "--port", "-5"],
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

    @pytest.mark.parametrize("verb", [
        ["figure", "2"], ["table2"], ["arena"], ["cloud"], ["submit", "h:1"],
    ], ids=lambda verb: verb[0])
    def test_seed_on_a_sweep_verb_means_seeds(self, verb):
        # the sweep verbs average over --seeds; --seed abbreviates it
        args = build_parser().parse_args([*verb, "--seed", "5"])
        assert args.seeds == [5]
        assert not hasattr(args, "seed")

    def test_readme_flag_table_matches_the_parser(self):
        declared = _verbs(build_parser())
        rows = _readme_flag_rows()
        assert len(rows) >= 20, "README's flag table was not found"
        drift = {}
        for flag, listed in rows:
            actual = {verb for verb, opts in declared.items() if flag in opts}
            if actual != listed:
                drift[flag] = {"README": sorted(listed),
                               "parser": sorted(actual)}
        assert not drift

    @pytest.mark.parametrize("argv", [
        ["figure", "3", "--cores", "8"],
        ["figure", "4", "--cores", "2"],
        ["figure", "5", "--cores", "4"],
        ["figure", "4", "--groups", "MIX"],
        ["figure", "5", "--groups", "MEM"],
        *(["submit", "h:1", section, "--cores", "2"]
          for section in ("figure3", "figure4", "figure5", "table2",
                          "arena", "cloud")),
        *(["submit", "h:1", section, "--groups", "MIX"]
          for section in ("figure4", "figure5", "table2", "arena",
                          "cloud")),
        *(["submit", "h:1", section, "--mixes", "smoke"]
          for section in ("table2", "figure2", "figure3", "figure4",
                          "figure5")),
    ], ids=lambda argv: " ".join(argv))
    def test_flag_the_section_does_not_read_is_a_usage_error(
            self, argv, monkeypatch, capsys):
        import repro.cli as cli

        def planned(*_args):
            raise AssertionError("planned a section it should have rejected")

        monkeypatch.setattr(cli, "_sweep", planned)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        section = argv[2] if argv[0] == "submit" else f"figure{argv[1]}"
        err = capsys.readouterr().err
        assert argv[-2] in err and section in err

    @pytest.mark.parametrize("argv, expected", _READ_FLAGS,
                             ids=[" ".join(argv) for argv, _ in _READ_FLAGS])
    def test_flags_the_section_reads_keep_their_defaults(
            self, argv, expected, monkeypatch):
        import repro.cli as cli

        swept = []
        monkeypatch.setattr(cli, "_sweep",
                            lambda args, _execute: swept.append(args))
        assert main(argv) == 0
        assert {flag: tuple(getattr(swept[0], flag))
                for flag in expected} == expected

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
