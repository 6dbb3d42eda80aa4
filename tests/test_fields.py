"""Field arithmetic, labels, and the characteristic-2 refusal."""

from fractions import Fraction

import pytest

from altschur import GF, QQ, FieldSpec


def test_rationals_are_exact():
    third = QQ.div(QQ.one, QQ.from_int(3))
    assert third == Fraction(1, 3)
    assert QQ.add(third, QQ.mul(third, QQ.from_int(2))) == Fraction(1)
    assert QQ.sub(QQ.zero, third) == Fraction(-1, 3)
    assert QQ.neg(third) == Fraction(-1, 3)
    assert QQ.characteristic == 0
    # int input, as the integer structure constants are, stays exact
    for a in [3, -4, 1, Fraction(2, 3)]:
        assert type(QQ.inv(a)) is Fraction and QQ.inv(a) * a == 1
    assert type(QQ.div(1, 3)) is Fraction and QQ.div(1, 3) == third


@pytest.mark.parametrize("p", [3, 5, 7, 999983])
def test_prime_field_wraps(p):
    f = GF(p)
    assert f.add(f.from_int(p - 1), f.one) == 0
    assert f.from_int(-1) == p - 1
    assert f.characteristic == p


@pytest.mark.parametrize("p", [3, 5, 7])
def test_prime_field_inverses(p):
    f = GF(p)
    for a in range(1, p):
        assert f.mul(a, f.inv(a)) == 1


def test_inverting_zero_fails():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)


def test_characteristic_two_rejected():
    with pytest.raises(ValueError):
        GF(2)


@pytest.mark.parametrize("p", [-5, 0, 1, 4, 9, 15])
def test_non_primes_rejected(p):
    with pytest.raises(ValueError):
        GF(p)


def test_raw_constructor_validation():
    with pytest.raises(ValueError):
        FieldSpec("Q", 3)
    with pytest.raises(ValueError):
        FieldSpec("R")


def test_scalar_format_parse_roundtrip_rationals():
    for value in [Fraction(0), Fraction(-3, 7), Fraction(22, 4)]:
        text = QQ.format_scalar(value)
        assert QQ.parse_scalar(text) == value
    assert QQ.format_scalar(Fraction(-3, 7)) == "-3/7"
    assert QQ.format_scalar(Fraction(22, 4)) == "11/2"


def test_parse_scalar_refuses_a_zero_denominator():
    """A rational with denominator 0 is a malformed scalar, named in the
    error, not a division by zero."""
    for text in ["1/0", " -3/0 "]:
        with pytest.raises(ValueError, match="zero denominator") as info:
            QQ.parse_scalar(text)
        assert repr(text.strip()) in str(info.value)


def test_scalar_format_parse_roundtrip_prime_field():
    f = GF(5)
    assert f.format_scalar(3) == "3 mod 5"
    assert f.parse_scalar("3 mod 5") == 3
    assert f.parse_scalar("12") == 2
    with pytest.raises(ValueError):
        f.parse_scalar("3 mod 7")


def test_labels():
    assert QQ.label == "Q"
    assert GF(7).label == "GF(7)"
    assert FieldSpec.from_label("Q") == QQ
    assert FieldSpec.from_label("QQ") == QQ
    assert FieldSpec.from_label("GF(7)") == GF(7)
    assert FieldSpec.from_label("GF7") == GF(7)
    assert str(GF(7)) == "GF(7)"
    with pytest.raises(ValueError):
        FieldSpec.from_label("R")


def test_field_specs_are_values():
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert QQ != GF(5)
    assert len({GF(5), GF(5), QQ}) == 2
