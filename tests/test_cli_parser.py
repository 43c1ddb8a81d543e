"""The CLI's argument parser is built once, at import, and reused by every ``main`` call.

Each test compares ``cli._PARSER`` with a reference parser built here the way
``main`` once built its own on every call: the same usage and help text, the
same parsed arguments, and the same exit status and stderr on bad argv, even
after many calls in one process.
"""

import argparse
import json

import pytest

from hvkit import cli
from hvkit.cli import main, run_config

CONFIG = {"command": "invariants", "module": {"family": "omega", "lambda": "2", "alpha": "3", "mu": ["1"], "beta": "0"}}


def _reference() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hvkit",
        description="Exact checks for the Heisenberg-Virasoro map algebra and its modules.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--out", choices=("json", "tsv"), default="json")
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="shuffle sweep sampling order (results are order-independent)",
    )
    return parser


def test_usage_and_help_match_the_reference():
    assert cli._PARSER.format_usage() == _reference().format_usage()
    assert cli._PARSER.format_help() == _reference().format_help()


@pytest.mark.parametrize(
    "argv",
    [
        ["--config", "c.json"],
        ["--config", "c.json", "--out", "tsv"],
        ["--seed", "-4", "--config", "c.json", "--out", "json"],
        ["--config=c.json", "--seed=0"],
    ],
    ids=["config-only", "tsv", "seed-first", "equals-form"],
)
def test_parsed_arguments_match_the_reference(argv):
    assert vars(cli._PARSER.parse_args(argv)) == vars(_reference().parse_args(argv))


def _reference_error(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        _reference().parse_args(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_repeated_main_calls_match_the_reference(tmp_path, capsys):
    """One valid config run three times gives byte-identical stdout and exit
    codes, with other valid and bad argv run in between; each bad argv exits
    2 with the reference parser's stderr."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CONFIG))
    config = ["--config", str(path)]
    code, text = run_config(CONFIG)
    bad = [
        [],
        config + ["--seed", "z"],
        config + ["--out", "xml"],
        config + ["--bogus"],
    ]
    for _ in range(3):
        assert main(config) == code
        assert capsys.readouterr() == (text, "")
        assert main(config + ["--out", "tsv"]) == code
        assert capsys.readouterr() == (run_config(CONFIG, "tsv")[1], "")
        assert main(config + ["--seed", "3"]) == code
        assert capsys.readouterr() == (text, "")
        for argv in bad:
            expected = _reference_error(argv, capsys)
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == expected
            assert captured.err.splitlines()[-1].startswith("hvkit: error: ")
