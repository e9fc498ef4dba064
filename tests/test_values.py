"""The result and input types are immutable values: fields are read-only,
construction takes keywords and defaults, equal values compare equal, and
the types that validate refuse bad input with the messages pinned here."""

from __future__ import annotations

import math
import re
from functools import cache

import pytest

from stskit.analysis import (PCBoundCertificate, SearchBudget, chromatic_index_exact,
                             enumerate_parallel_classes, max_disjoint_pcs, theorem1_pipeline)
from stskit.constructions import LabelledSTS, LatinSquare, half_sum_square, wilson_schreiber
from stskit.core import Colouring, PartialParallelClass, TripleSystem, VerificationReport
from stskit.factorisation import factorise_G
from stskit.generator import colouring_survey
from stskit.numtheory import number_profile

from conftest import FANO_TRIPLES

FANO = TripleSystem.from_triples(7, FANO_TRIPLES)


@cache
def _values():
    """One value of each type, by name."""
    grid = TripleSystem.from_triples(9, [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7),
                                         (2, 5, 8), (0, 4, 8), (1, 5, 6), (2, 3, 7), (0, 5, 7),
                                         (1, 3, 8), (2, 4, 6)])
    return {
        "TripleSystem": FANO,
        "PartialParallelClass": PartialParallelClass((0, 3)),
        "Colouring": Colouring(FANO, (PartialParallelClass((0,)),)),
        "VerificationReport": VerificationReport(),
        "SearchBudget": SearchBudget(),
        "PCEnumeration": enumerate_parallel_classes(grid),
        "MaxDisjointResult": max_disjoint_pcs(grid),
        "PCBoundCertificate": PCBoundCertificate("m", 2),
        "ChiResult": chromatic_index_exact(grid),
        "PipelineReport": theorem1_pipeline(45),
        "LatinSquare": half_sum_square(3),
        "LabelledSTS": wilson_schreiber(7),
        "NumberProfile": number_profile(49),
        "OneFactorisation": factorise_G(7),
        "SurveyResult": colouring_survey(7, 1, 0, 1),
    }


@pytest.mark.parametrize("name", list(_values()))
def test_fields_are_read_only(name):
    value = _values()[name]
    assert type(value).__name__ == name
    field = value._fields[0] if isinstance(value, tuple) else "system"
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.no_such_field = 1
    with pytest.raises(AttributeError):
        delattr(value, field)


@pytest.mark.parametrize("name", list(_values()))
def test_equal_values_compare_equal(name):
    value = _values()[name]
    copy = (type(value)(*value) if isinstance(value, tuple)
            else LabelledSTS(value.system, value.tag, dict(value.families)))
    assert copy is not value and copy == value
    if name not in ("PCBoundCertificate", "LabelledSTS", "SurveyResult"):  # they hold a dict
        assert hash(copy) == hash(value)


def test_keywords_and_defaults():
    assert SearchBudget() == SearchBudget(max_nodes=100_000_000, max_seconds=60.0)
    assert SearchBudget(max_seconds=2.5) == SearchBudget(100_000_000, 2.5)
    assert VerificationReport() == VerificationReport(first_violation=None, violation_count=0,
                                                      n_classes=None)
    assert VerificationReport().ok and not VerificationReport(violation_count=1).ok
    assert TripleSystem(v=7, triples=FANO.triples) == FANO
    assert FANO.b == 7
    assert Colouring(host=FANO, classes=()).n_classes == 0
    assert PCBoundCertificate(method="m", bound=2).witness == {}
    square = LatinSquare(n=3, rows=half_sum_square(3).rows)
    assert square(1, 2) == square.rows[1][2] and square.is_idempotent()
    labelled = LabelledSTS(system=FANO, tag="t", families={"all": 7})
    assert (labelled.system, labelled.tag, labelled.families) == (FANO, "t", {"all": 7})
    assert labelled != LabelledSTS(FANO, "u", {"all": 7})


def test_certificate_witnesses_are_not_shared():
    one, two = PCBoundCertificate("m", 2), PCBoundCertificate("m", 2)
    assert one.witness == two.witness == {}
    one.witness["x"] = 1
    assert two.witness == {} and PCBoundCertificate("m", 2).witness == {}


def test_from_triples_is_a_classmethod_of_triple_system():
    # Tracing wraps it there.
    assert isinstance(TripleSystem.__dict__["from_triples"], classmethod)


def test_labelled_system_is_not_a_tuple():
    assert not isinstance(wilson_schreiber(7), tuple)


# repr of each value, as it read when the types were frozen dataclasses.
_REPRS = {
    "TripleSystem": "TripleSystem(v=7, triples=((0, 1, 3), (0, 2, 6), (0, 4, 5), (1, 2, 4), "
                    "(1, 5, 6), (2, 3, 5), (3, 4, 6)))",
    "PartialParallelClass": "PartialParallelClass(indices=(0, 3))",
    "VerificationReport": "VerificationReport(first_violation=None, violation_count=0, "
                          "n_classes=None)",
    "SearchBudget": "SearchBudget(max_nodes=100000000, max_seconds=60.0)",
    "PCEnumeration": "PCEnumeration(classes=(PartialParallelClass(indices=(0, 10, 11)), "
                     "PartialParallelClass(indices=(1, 5, 9)), "
                     "PartialParallelClass(indices=(2, 6, 7)), "
                     "PartialParallelClass(indices=(3, 4, 8))), status='complete', nodes=13)",
    "PCBoundCertificate": "PCBoundCertificate(method='m', bound=2, witness={})",
    "PipelineReport": "PipelineReport(v=45, route='possible-exception', holds=None, chi_lower=23, "
                      "chi_exact=None, pc_bound=10, f=3, message='possible exception: "
                      "3 f(43)+1 = 10 is not below (v+3)/6 = 8; the order-45 construction is "
                      "not resolvable, so chromatic index >= 23')",
    "LatinSquare": "LatinSquare(n=3, rows=((0, 2, 1), (2, 1, 0), (1, 0, 2)))",
    "LabelledSTS": "LabelledSTS(system=TripleSystem(v=9, triples=((0, 1, 3), (0, 2, 6), "
                   "(0, 4, 7), (0, 5, 8), (1, 2, 8), (1, 4, 6), (1, 5, 7), (2, 3, 7), (2, 4, 5), "
                   "(3, 4, 8), (3, 5, 6), (6, 7, 8))), tag='wilson-schreiber', "
                   "families={'zero-sum': 2, 'infinity': 10})",
    "NumberProfile": "NumberProfile(n=49, phi=42, sub_order=42, g=1, f=2, psi=24, psi_star=12, "
                     "divisors_gt1=(7, 49))",
    "OneFactorisation": "OneFactorisation(n=7, factors=(((1, 3), (2, 5), (4, 6)), "
                        "((1, 5), (2, 6), (3, 4)), ((1, 6), (2, 3), (4, 5))))",
    "SurveyResult": "SurveyResult(v=7, m=4, counts={'m': 0, 'm+1': 0, 'm+2': 0, 'fail': 1}, "
                    "generator_failures=0)",
}


@pytest.mark.parametrize("name", list(_REPRS))
def test_repr_is_unchanged(name):
    assert repr(_values()[name]) == _REPRS[name]


# Each refused construction and its message, as it read when the types
# were frozen dataclasses.
_REFUSALS = [
    (lambda: TripleSystem(0, ()), "v must be positive, got 0"),
    (lambda: TripleSystem(7, ((0, 1),)), "triple (0, 1) does not have 3 entries"),
    (lambda: TripleSystem(7, ((0, 1, 9),)), "triple (0, 1, 9) has a point outside 0..6"),
    (lambda: TripleSystem(7, ((1, 0, 2),)), "triple (1, 0, 2) is not sorted; use from_triples"),
    (lambda: TripleSystem(7, ((0, 0, 1),)), "triple (0, 0, 1) repeats a point"),
    (lambda: TripleSystem(7, ([0, 1, 2],)), "triple [0, 1, 2] is not a tuple; use from_triples"),
    (lambda: TripleSystem(7, ((0, 1, 2), (0, 1, 2))), "duplicate triple (0, 1, 2)"),
    (lambda: TripleSystem(7, ((0, 1, 3), (0, 1, 2))),
     "triple list is not sorted; use from_triples"),
    (lambda: PartialParallelClass((2, 1)), "class indices must be sorted and duplicate-free"),
    (lambda: PartialParallelClass((1, 1)), "class indices must be sorted and duplicate-free"),
    (lambda: PartialParallelClass((-1, 2)), "negative triple index"),
    (lambda: Colouring(FANO, (PartialParallelClass((7,)),)),
     "class references triple index 7 but the host has only 7 triples"),
    (lambda: SearchBudget(-1), "budget limits must be nonnegative"),
    (lambda: SearchBudget(max_seconds=-1.0), "budget limits must be nonnegative"),
    (lambda: SearchBudget(max_seconds=math.nan), "budget limits must be nonnegative"),
    (lambda: LatinSquare(3, ((0, 1, 2),)), "expected 3 rows, got 1"),
    (lambda: LatinSquare(2, ((0, 1), (0, 1))), "column 0 is not a permutation of 0..1"),
    (lambda: LatinSquare(2, ((0, 0), (1, 1))), "row 0 is not a permutation of 0..1"),
]


@pytest.mark.parametrize("build, message", _REFUSALS)
def test_validation_messages_are_unchanged(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("replace, message", [
    (lambda: FANO._replace(v=0), "v must be positive, got 0"),
    (lambda: PartialParallelClass((0, 3))._replace(indices=(3, 0)),
     "class indices must be sorted and duplicate-free"),
    (lambda: Colouring(FANO, ())._replace(classes=(PartialParallelClass((9,)),)),
     "class references triple index 9 but the host has only 7 triples"),
    (lambda: SearchBudget()._replace(max_nodes=-1), "budget limits must be nonnegative"),
    (lambda: half_sum_square(3)._replace(n=2), "expected 2 rows, got 3"),
    (lambda: TripleSystem._make((7, ((0, 0, 1),))), "triple (0, 0, 1) repeats a point"),
])
def test_replace_and_make_validate_as_the_constructor_does(replace, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replace()
