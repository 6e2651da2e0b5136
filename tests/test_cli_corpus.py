"""Byte-exact CLI output over a fixed corpus of argument lists.

``cli_corpus.json`` holds, for each argument list, the exit code and the
exact stdout that ``octopoly`` produced when the corpus was recorded: exact
and float ``solve`` (the README golden quadratic, a full class, a non-monic
input, an input over (-2,-3,-5), a real-coefficient input whose companion
keeps the square of an irreducible cubic, ``--pretty``), exact ``solve``
of the full classes ``z^2 + 5`` (two-direction witness i + 2j),
``z^2 + 3`` (equal-coordinate witness i + j + k) and ``z^2 + 11`` (no
witness found: the class is ``undetermined``), ``eigen`` on both sides for
members and non-members in both modes, and a split algebra.
"""

import json
from pathlib import Path

import pytest

from octopoly.cli import main

CORPUS = json.loads((Path(__file__).parent / "cli_corpus.json").read_text())


@pytest.mark.parametrize("case", CORPUS, ids=[" ".join(c["argv"]) for c in CORPUS])
def test_cli_corpus_byte_identical(case, capsys):
    rc = main(case["argv"])
    assert rc == case["exit"]
    assert capsys.readouterr().out == case["stdout"]
