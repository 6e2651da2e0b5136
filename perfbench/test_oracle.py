"""Tests of the benchmark's independent checks.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_oracle.py

Every check must accept a correct report and reject a corrupted one.
"""

import contextlib
import io
import random
from fractions import Fraction

import pytest

import inputs
import oracle
import run
from octopoly import OctonionAlgebra, lev_test, parse_octonion, parse_polynomial, rev_test, solve

F = Fraction
STD = inputs.STANDARD
ZERO = F(0)


def element(**coords):
    x = [ZERO] * 8
    for sym, value in coords.items():
        x[oracle.SYMBOLS.index("1" if sym == "one" else sym)] = F(value)
    return tuple(x)


GOLDEN_COEFFS = (element(l=1), element(j=1), element(i=1))  # i*z^2 + j*z + l
ROOT_1 = element(one=F(1, 2), k=F(1, 2), il=F(1, 2), jl=F(1, 2))
ROOT_2 = element(one=F(-1, 2), k=F(1, 2), il=F(-1, 2), jl=F(1, 2))


def golden_report():
    return {
        "companion": (F(1), ZERO, F(1), ZERO, F(1)),
        "classes": ((F(-1), F(1), 2, 1, "single_root", ROOT_2), (F(1), F(1), 2, 1, "single_root", ROOT_1)),
    }


def test_product_agrees_with_the_package():
    rng = random.Random(1)
    for params in (STD, inputs.GENERIC):
        alg = OctonionAlgebra(*params)
        for _ in range(50):
            x, y = inputs._int_element(rng, 5), inputs._int_element(rng, 5)
            assert oracle.mul(x, y, params) == (alg.octonion(x) * alg.octonion(y)).coords
        xf = tuple(rng.uniform(-1, 1) for _ in range(8))
        yf = tuple(rng.uniform(-1, 1) for _ in range(8))
        prod = OctonionAlgebra(*params, mode="float").octonion(xf) * OctonionAlgebra(*params, mode="float").octonion(yf)
        assert max(abs(a - b) for a, b in zip(oracle.mul(xf, yf, params), prod.coords)) < 1e-12


def test_readme_golden_example():
    assert oracle.companion(GOLDEN_COEFFS, STD) == [1, 0, 1, 0, 1]
    assert oracle.exact_classes([F(1), ZERO, F(1), ZERO, F(1)]) == [(F(-1), F(1), 2, 1), (F(1), F(1), 2, 1)]
    for root in (ROOT_1, ROOT_2):
        assert oracle.evaluate(GOLDEN_COEFFS, root, STD) == (ZERO,) * 8
    oracle.check_solve(GOLDEN_COEFFS, ROOT_1, golden_report(), STD, True)
    assert oracle.parse_element(oracle.format_element(ROOT_2), True) == ROOT_2


def _corrupt(report, **changes):
    out = dict(report)
    out.update(changes)
    return out


@pytest.mark.parametrize("corruption", [
    "root coordinate", "dropped class", "companion coefficient", "status undetermined", "wrong class",
])
def test_exact_solve_checks_reject_corruption(corruption):
    good = golden_report()
    classes = list(good["classes"])
    if corruption == "root coordinate":
        t, n, d, m, s, p = classes[1]
        classes[1] = (t, n, d, m, s, (p[0] + 1,) + p[1:])
    elif corruption == "dropped class":
        classes.pop()
    elif corruption == "status undetermined":
        classes[0] = classes[0][:4] + ("undetermined", None)
    elif corruption == "wrong class":
        classes[0] = (F(-1), F(2)) + classes[0][2:]
    bad = _corrupt(good, classes=tuple(classes))
    if corruption == "companion coefficient":
        bad = _corrupt(good, companion=(F(1), ZERO, F(2), ZERO, F(1)))
    with pytest.raises(oracle.CheckFailed):
        oracle.check_solve(GOLDEN_COEFFS, ROOT_1, bad, STD, True)


def test_lost_planted_root_and_false_rejection_are_caught():
    report = golden_report()
    with pytest.raises(oracle.CheckFailed):
        oracle.check_planted(report, element(one=1), STD, True)
    rootless = _corrupt(report, classes=(report["classes"][0][:4] + ("not_embeddable", None), report["classes"][1]))
    with pytest.raises(oracle.CheckFailed):
        oracle.check_substitution(GOLDEN_COEFFS, rootless, STD, True)


def _library_solve(case):
    alg = OctonionAlgebra(*case.params, mode="exact" if case.exact else "float")
    return run.normalize_solve(solve(parse_polynomial(case.literal, alg)))


def test_float_solve_checks():
    case = inputs.solve_float_cases(random.Random(3))[20]
    report = _library_solve(case)
    oracle.check_solve(case.coeffs, case.planted, report, case.params, False)
    t, n, d, m, s, p = report["classes"][0]
    moved = ((t, n, d, m, s, tuple(c + 1e-3 for c in p)),) + report["classes"][1:]
    with pytest.raises(oracle.CheckFailed):
        oracle.check_substitution(case.coeffs, _corrupt(report, classes=moved), case.params, False)
    shifted = ((t + 1e-3, n, d, m, s, p),) + report["classes"][1:]
    with pytest.raises(oracle.CheckFailed):
        oracle.check_companion(case.coeffs, _corrupt(report, classes=shifted), case.params, False)


def test_central_and_cubic_inputs_pass():
    for params, lead, degree, cubic in inputs.SOLVE_CENTRAL:
        coeffs, lam = inputs.central_exact(random.Random(degree), params, degree, lead, cubic)
        case = inputs.solve_case(params, coeffs, lam, True, "central")
        report = _library_solve(case)
        assert any(c[4] == "full_class" for c in report["classes"])
        oracle.check_solve(coeffs, lam, report, params, True)


def test_eigen_checks_readme_example():
    # z^2 + i*z + (1 + k): j is a left eigenvalue that is not a root, with
    # first eigenvector component l
    coeffs = (element(one=1, k=1), element(i=1), element(one=1))
    j = element(j=1)
    left = {"member": True, "kernel": element(l=1), "vector": (element(l=1), oracle.mul(j, element(l=1), STD))}
    oracle.check_eigen(coeffs, j, "left", left, STD)
    for bad in (_corrupt(left, member=False), _corrupt(left, vector=(element(l=1), element(l=1)))):
        with pytest.raises(oracle.CheckFailed):
            oracle.check_eigen(coeffs, j, "left", bad, STD)
    alg = OctonionAlgebra(*STD)
    phi = parse_polynomial("z^2 + i*z + (1 + k)", alg)
    right = run.normalize_eigen(rev_test(phi, parse_octonion("j", alg)))
    oracle.check_eigen(coeffs, j, "right", right, STD)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_eigen(coeffs, j, "right", _corrupt(right, kernel=element(one=1)), STD)
    nonmember = element(one=2)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_eigen(coeffs, nonmember, "left", left, STD)


def test_generated_eigen_cases_pass():
    for case in inputs.eigen_cases(random.Random(5))[:: 37]:
        alg = OctonionAlgebra(*case.params)
        phi = parse_polynomial(case.literal, alg)
        test = lev_test if case.kind == "lev" else rev_test
        report = run.normalize_eigen(test(phi, parse_octonion(case.lam_literal, alg)))
        run.check(case, report)


def test_cli_json_is_normalized_and_checked():
    import octopoly.cli

    case = inputs.cli_cases(random.Random(2))[0]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert octopoly.cli.main(run.cli_argv(case, False)[4:]) == 0
    report = run.normalize_cli(case, buf.getvalue())
    run.check(case, report)
    with pytest.raises(oracle.CheckFailed):
        run.check(case, run.normalize_cli(case, buf.getvalue().replace('"1/2"', '"1/3"')))
    with pytest.raises(oracle.CheckFailed):
        run.check(case, run.normalize_cli(case, "Traceback"))


def test_per_layer_metrics_match_benchmark_json():
    import json
    from pathlib import Path

    import spans

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == list(spans.PER_LAYER)
