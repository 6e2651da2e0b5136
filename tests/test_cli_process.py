"""The CLI as a process: ``python -S -m octopoly``, as a user or the
benchmark's cli workload runs it, through ``console_entry``.

Every entry of ``cli_corpus.json`` gives its exit code and byte-identical
stdout, with the JSON's warnings mirrored on stderr; a usage error, a
float-range loss and a closed stdout exit 2, 4 and 1.  The product kernel of
an algebra is built without the ``compile()`` builtin, whose first call in a
process costs about a millisecond.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
CORPUS = json.loads((ROOT / "tests" / "cli_corpus.json").read_text())
GOLDEN = ["solve", "--poly", "i*z^2 + j*z + l"]


def _run(args, **kwargs):
    """``python -S`` with ``args`` and the package on its path."""
    return subprocess.run([sys.executable, "-S"] + args, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          timeout=60, **kwargs)


def _octopoly(argv, **kwargs):
    return _run(["-m", "octopoly"] + argv, **kwargs)


@pytest.mark.parametrize("case", CORPUS, ids=[" ".join(c["argv"]) for c in CORPUS])
def test_process_corpus_byte_identical(case):
    run = _octopoly(case["argv"], capture_output=True)
    assert run.returncode == case["exit"], run.stderr
    assert run.stdout == case["stdout"].encode()
    if case["exit"] == 0 and case["argv"][0] == "solve":
        # e.g. the discarded cubic of z^5 + z^3 - 2*z^2 - 2 is explained on stderr
        warnings = json.loads(case["stdout"])["warnings"]
        assert run.stderr.decode() == "".join("warning: %s\n" % w for w in warnings)


def test_process_usage_error_exits_2():
    run = _octopoly(GOLDEN + ["--bogus"], capture_output=True, text=True)
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.startswith("usage: ")


def test_process_float_range_loss_exits_4():
    run = _octopoly(["solve", "--mode", "float", "--poly", "1e-170*z^2 + 1"], capture_output=True, text=True)
    assert run.returncode == 4
    assert run.stdout == ""
    assert run.stderr.startswith("numeric failure: float64 underflow")


def test_process_closed_stdout_exits_1_without_traceback():
    # a pipe whose read end is closed, as after `octopoly ... | head -c 0`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = _octopoly(GOLDEN, stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert run.returncode == 1
    assert run.stderr == ""  # no BrokenPipeError traceback


def test_cli_builds_the_product_without_compile():
    # the first compile() of a process builds the _ast types; the product
    # kernel is exec'd from its source text and named afterwards
    queries = [GOLDEN, ["eigen", "--poly", "z^2 + i*z + (1 + k)", "--lambda", "j", "--side", "left"]]
    code = "\n".join([
        "import builtins, sys",
        "import octopoly.cli",
        "from octopoly import OctonionAlgebra",
        "def refuse(*args, **kwargs):",
        "    raise AssertionError('compile() called')",
        "builtins.compile = refuse",
        "for mode in ('exact', 'float'):",
        "    for argv in %r:" % (queries,),
        "        print(octopoly.cli.main(argv + ['--mode', mode]), file=sys.stderr)",
        "    product = OctonionAlgebra(-2, -3, -5, mode=mode).backend._product",
        "    print(product.__code__.co_filename, file=sys.stderr)",
    ])
    run = _run(["-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stderr.splitlines() == ["0", "0", "<octonion product>"] * 2
