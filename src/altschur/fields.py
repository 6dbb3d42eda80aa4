"""Exact scalar arithmetic over the rationals and over odd prime fields.

Every computation in this package is exact: rational scalars are
``fractions.Fraction`` values and prime-field scalars are canonical integer
representatives in ``range(p)``.  A :class:`FieldSpec` bundles the choice of
field with the handful of operations the rest of the package needs (ring ops,
inversion, parsing and canonical formatting).  Characteristic 2 is rejected at
construction time: the sign character is trivial there and the odd part of the
algebra degenerates, so no downstream code ever has to re-check.

Canonical scalar serialization:

* rationals: ``"a/b"`` with ``b > 0`` and ``gcd(a, b) == 1`` (``Fraction``
  normalizes to exactly this form),
* prime fields: ``"k mod p"`` with ``0 <= k < p``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, int]

__all__ = ["FieldSpec", "Scalar", "QQ", "GF"]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A coefficient field: the rationals (``kind='Q'``) or GF(p) (``kind='GF'``).

    Use :meth:`rationals` / :meth:`prime_field` rather than the raw
    constructor.  Scalars are not wrapped in objects; a FieldSpec operates on
    raw ``Fraction`` values (rationals) or canonical ints (prime fields), which
    keeps inner loops cheap.
    """

    kind: str
    p: int = 0

    def __post_init__(self) -> None:
        if self.kind == "Q":
            if self.p != 0:
                raise ValueError("rational field carries no prime")
        elif self.kind == "GF":
            if not _is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")
            if self.p == 2:
                raise ValueError(
                    "characteristic 2 is not supported: the sign character "
                    "collapses and the odd component is degenerate"
                )
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls("Q")

    @classmethod
    def prime_field(cls, p: int) -> "FieldSpec":
        return cls("GF", p)

    @property
    def characteristic(self) -> int:
        return 0 if self.kind == "Q" else self.p

    # -- ring operations on raw scalar values ------------------------------

    @property
    def zero(self) -> Scalar:
        return Fraction(0) if self.kind == "Q" else 0

    @property
    def one(self) -> Scalar:
        return Fraction(1) if self.kind == "Q" else 1

    def from_int(self, k: int) -> Scalar:
        return Fraction(k) if self.kind == "Q" else k % self.p

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return a + b if self.kind == "Q" else (a + b) % self.p

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return a - b if self.kind == "Q" else (a - b) % self.p

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b if self.kind == "Q" else (a * b) % self.p

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.kind == "Q" else (-a) % self.p

    def inv(self, a: Scalar) -> Scalar:
        if not a:
            raise ZeroDivisionError("inverting zero")
        if self.kind == "Q":
            return Fraction(1) / a  # 1 / a would be a float for an int a
        return pow(a, -1, self.p)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    # -- serialization ------------------------------------------------------

    def format_scalar(self, a: Scalar) -> str:
        if self.kind == "Q":
            a = Fraction(a)
            return f"{a.numerator}/{a.denominator}"
        return f"{a % self.p} mod {self.p}"

    def parse_scalar(self, text: str) -> Scalar:
        if not isinstance(text, str):
            raise TypeError(f"a scalar must be written as a string, got {text!r}")
        text = text.strip()
        if self.kind == "Q":
            try:
                return Fraction(text)
            except ZeroDivisionError:
                raise ValueError(f"scalar {text!r} has a zero denominator") from None
        if "mod" in text:
            value, modulus = text.split("mod")
            if int(modulus) != self.p:
                raise ValueError(
                    f"scalar {text!r} carries modulus {modulus.strip()}, "
                    f"field is GF({self.p})"
                )
            return int(value) % self.p
        return int(text) % self.p

    @property
    def label(self) -> str:
        return "Q" if self.kind == "Q" else f"GF({self.p})"

    @classmethod
    def from_label(cls, label: str) -> "FieldSpec":
        if not isinstance(label, str):
            raise TypeError(f"a field label must be a string, got {label!r}")
        label = label.strip()
        if label in ("Q", "QQ"):
            return cls.rationals()
        if label.startswith("GF(") and label.endswith(")"):
            return cls.prime_field(int(label[3:-1]))
        if label.startswith("GF"):
            return cls.prime_field(int(label[2:]))
        raise ValueError(f"unrecognized field label {label!r}")

    def __str__(self) -> str:
        return self.label


QQ = FieldSpec.rationals()


def GF(p: int) -> FieldSpec:
    return FieldSpec.prime_field(p)
