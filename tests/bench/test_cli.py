"""Tests for the repro-bench CLI."""

import pytest

from repro.bench.cli import SUBCOMMANDS, main


def test_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "figures" in out and "tables" in out


def test_list_enumerates_every_subcommand(capsys):
    """The --list help is generated from the dispatcher's registry, so
    every runnable subcommand must appear — the help can never go stale
    the way a hand-maintained list once did."""
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in SUBCOMMANDS:
        assert name in out, f"--list omits subcommand {name!r}"


def test_registry_has_the_known_subcommands():
    assert set(SUBCOMMANDS) == {"trace", "campaign"}
    for name, (runner, help_line) in SUBCOMMANDS.items():
        assert callable(runner)
        assert help_line  # one-line description for --list


def test_help_epilogue_enumerates_every_subcommand(capsys):
    """Top-level --help must list every registered subcommand too: the
    epilogue is generated from SUBCOMMANDS at parser-build time, so a
    new subcommand appears there with zero manual edits."""
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "subcommands" in out
    for name, (_runner, help_line) in SUBCOMMANDS.items():
        assert name in out, f"--help epilogue omits subcommand {name!r}"
        assert help_line in out, f"--help epilogue omits {name!r}'s help line"


def test_subcommand_help_lines_fit_the_epilogue():
    """Registry help lines must be single-line (the epilogue renders
    them verbatim, one per row)."""
    for name, (_runner, help_line) in SUBCOMMANDS.items():
        assert "\n" not in help_line, f"{name!r} help line is multi-line"


def test_no_args_shows_help(capsys):
    assert main([]) == 2
    assert "repro-bench" in capsys.readouterr().out


def test_bad_figure_rejected():
    with pytest.raises(SystemExit):
        main(["--figure", "9"])


@pytest.mark.slow
def test_figure_fast_run(capsys):
    assert main(["--figure", "4", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "KNEM LMT" in out and "64KiB" in out


@pytest.mark.slow
def test_figure_csv(capsys):
    assert main(["--figure", "6", "--fast", "--csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("size,")
