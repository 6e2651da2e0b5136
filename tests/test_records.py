"""The result records: field order and defaults, immutability, hashing and
repr text, and the validation of ToleranceSpec."""

import pytest

from octopoly import (
    CentralRoots,
    ClassCandidate,
    CompanionMatrix,
    ConfigurationError,
    DivisionCheck,
    ExactFactorization,
    MembershipReport,
    ReducedLinearForm,
    ToleranceSpec,
)
from octopoly.solver import ClassResolution, RootReport

# (record, its fields in order, its defaults, positional arguments, repr)
RECORDS = [
    (
        DivisionCheck,
        ("status",),
        {},
        ("split",),
        "DivisionCheck(status='split')",
    ),
    (
        ToleranceSpec,
        ("abs_eps", "rel_eps"),
        {"abs_eps": 1e-10, "rel_eps": 1e-9},
        (),
        "ToleranceSpec(abs_eps=1e-10, rel_eps=1e-09)",
    ),
    (
        ClassCandidate,
        ("trace", "norm", "field_degree", "multiplicity"),
        {},
        (0, 1, 2, 2),
        "ClassCandidate(trace=0, norm=1, field_degree=2, multiplicity=2)",
    ),
    (
        CentralRoots,
        ("candidates", "warnings", "discarded_degree"),
        {"warnings": (), "discarded_degree": 0},
        ((),),
        "CentralRoots(candidates=(), warnings=(), discarded_degree=0)",
    ),
    (
        ExactFactorization,
        ("factors", "remainder", "truncated"),
        {"truncated": False},
        ((), "R"),
        "ExactFactorization(factors=(), remainder='R', truncated=False)",
    ),
    (
        CompanionMatrix,
        ("entries", "degree"),
        {},
        ((("a",),), 1),
        "CompanionMatrix(entries=(('a',),), degree=1)",
    ),
    (
        MembershipReport,
        ("member", "kernel_element", "eigenvector"),
        {"kernel_element": None, "eigenvector": None},
        (False,),
        "MembershipReport(member=False, kernel_element=None, eigenvector=None)",
    ),
    (
        ReducedLinearForm,
        ("E", "G", "norm", "trace", "weights"),
        {},
        ("E", "G", 1, 0, "w"),
        "ReducedLinearForm(E='E', G='G', norm=1, trace=0, weights='w')",
    ),
    (
        ClassResolution,
        ("status", "root", "witness", "reason"),
        {"root": None, "witness": None, "reason": None},
        ("undetermined",),
        "ClassResolution(status='undetermined', root=None, witness=None, reason=None)",
    ),
    (
        RootReport,
        ("algebra", "polynomial", "companion", "classes", "roots", "full_classes",
         "mode", "tolerance", "warnings"),
        {},
        tuple("abcdefghi"),
        "RootReport(algebra='a', polynomial='b', companion='c', classes='d', "
        "roots='e', full_classes='f', mode='g', tolerance='h', warnings='i')",
    ),
]


@pytest.mark.parametrize(
    "cls, fields, defaults, args, text", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_contract(cls, fields, defaults, args, text):
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    x = cls(*args)
    assert repr(x) == text
    assert cls(**dict(zip(fields, x))) == x
    with pytest.raises(AttributeError):
        setattr(x, fields[0], "other")
    with pytest.raises(AttributeError):
        x.extra = 1
    y = cls(*args)
    assert y is not x and y == x and hash(y) == hash(x)


def test_companion_matrix_is_indexed_by_row_and_column():
    m = CompanionMatrix((("a", "b"), ("c", "d")), 2)
    assert m[1, 0] == "c" and m.entries[0][1] == "b"


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
def test_tolerance_spec_rejects_bad_values(bad):
    for args, kwargs in [
        ((bad,), {}),
        ((1e-10, bad), {}),
        ((), {"abs_eps": bad}),
        ((), {"rel_eps": bad}),
    ]:
        with pytest.raises(ConfigurationError, match="finite and >= 0"):
            ToleranceSpec(*args, **kwargs)
    with pytest.raises(ConfigurationError):
        ToleranceSpec()._replace(rel_eps=bad)
