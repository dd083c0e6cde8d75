"""The nine record types are immutable named tuples that keep the field
order, equality, hashing and repr they had as frozen dataclasses."""

from fractions import Fraction

import pytest

from ordhom import (
    EulerReport,
    LexHomPoint,
    LexPoset,
    MonotoneMap,
    Numbering,
    OrderedSetPartition,
    OrderPolynomial,
    StanleyReport,
    UscSpec,
    chain,
)

C2 = "FinitePoset(elements=['1', '2'], covers=[('1', '2')])"
MAP = f"MonotoneMap(source={C2}, target={C2}, values=(0, 1), mode='weak')"
POLY = ("OrderPolynomial(coefficients=(Fraction(0, 1), Fraction(1, 1)), "
        "mode='{}', source_size=1)")
COEFFS = "(Fraction(0, 1), Fraction(1, 1))"


def _map():
    return MonotoneMap(chain(2), chain(2), (0, 1), "weak")


def _poly(mode):
    return OrderPolynomial((Fraction(0), Fraction(1)), mode, 1)


# (type, old dataclass field order, a builder of fresh equal instances,
#  the repr the frozen dataclass gave for that instance)
RECORDS = [
    (Numbering, ("order",), lambda: Numbering((1, 0)), "Numbering(order=(1, 0))"),
    (LexPoset, ("base", "depth"), lambda: LexPoset(chain(2), 2),
     f"LexPoset(base={C2}, depth=2)"),
    (MonotoneMap, ("source", "target", "values", "mode"), _map, MAP),
    (OrderPolynomial, ("coefficients", "mode", "source_size"),
     lambda: _poly("weak"), POLY.format("weak")),
    (StanleyReport, ("holds", "strict", "weak", "lhs", "rhs"),
     lambda: StanleyReport(True, _poly("strict"), _poly("weak"),
                           (Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))),
     f"StanleyReport(holds=True, strict={POLY.format('strict')}, "
     f"weak={POLY.format('weak')}, lhs={COEFFS}, rhs={COEFFS})"),
    (OrderedSetPartition, ("blocks",), lambda: OrderedSetPartition(((0,), (1,))),
     "OrderedSetPartition(blocks=((0,), (1,)))"),
    (EulerReport, ("identity", "lhs", "rhs", "holds"),
     lambda: EulerReport("strict_to_negated_weak", 1, 1, True),
     "EulerReport(identity='strict_to_negated_weak', lhs=1, rhs=1, holds=True)"),
    (LexHomPoint, ("base", "reals", "stage"),
     lambda: LexHomPoint(_map(), (0.5, 1.0), 1),
     f"LexHomPoint(base={MAP}, reals=(0.5, 1.0), stage=1)"),
    (UscSpec, ("positions", "value"), lambda: UscSpec((), float("-inf")),
     "UscSpec(positions=(), value=-inf)"),
]


@pytest.mark.parametrize("cls, fields, make, text", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, make, text):
    assert cls._fields == fields
    a, b = make(), make()
    assert type(a) is cls and a is not b
    with pytest.raises(AttributeError):
        setattr(a, fields[0], None)
    with pytest.raises(AttributeError):
        a.extra = None   # __slots__ = (): no instance dict
    assert a == b and hash(a) == hash(b)
    assert a == tuple(getattr(b, f) for f in fields)
    assert repr(a) == text


def test_lex_poset_depth_default_and_check():
    P = chain(2)
    assert LexPoset(P).depth == 0
    assert LexPoset(base=P, depth=3) == LexPoset(P, 3)
    with pytest.raises(ValueError):
        LexPoset(P, -1)
    # _make and _replace check the depth as the constructor does
    with pytest.raises(ValueError):
        LexPoset(P)._replace(depth=-1)
    with pytest.raises(ValueError):
        LexPoset._make([P, "x"])
    assert LexPoset(P)._replace(depth=2) == LexPoset._make([P, 2]) == LexPoset(P, 2)
    assert type(LexPoset._make([P, 2])) is LexPoset
