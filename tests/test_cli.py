"""The command-line entry point."""

from padicpolygons import cli


def test_oracle_subcommand_passes(capsys):
    assert cli.main(["oracle", "--trials", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("[PASS] ") for line in lines)
