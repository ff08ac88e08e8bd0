"""Money, rational-number and number-check helpers shared across the package.

Money is carried everywhere as an integer count of minor currency units
(cents for USD) so that cost arithmetic is exact. Ratios that must survive
floor/ceil arithmetic bit-exactly (blocking factors, per-port metrics) are
carried as ``fractions.Fraction``.
"""

from __future__ import annotations

import math
from decimal import Decimal, InvalidOperation
from fractions import Fraction

Money = int  # minor currency units
_MONEY_LIMIT = Decimal(10) ** 15  # major units
_CENT = Decimal("0.01")

_CURRENCY_SYMBOLS = {"USD": "$", "EUR": "€", "GBP": "£"}


def format_money(amount: Money, currency: str = "USD") -> str:
    """Render minor units as a human-readable amount, e.g. 1100000 -> "$11,000"."""
    sign = "-" if amount < 0 else ""
    units, cents = divmod(abs(amount), 100)
    symbol = _CURRENCY_SYMBOLS.get(currency)
    prefix = f"{sign}{symbol}" if symbol else f"{sign}{currency} "
    if cents:
        return f"{prefix}{units:,}.{cents:02d}"
    return f"{prefix}{units:,}"


def check_money(name: str, amount: Money) -> None:
    """Raise ValueError unless amount is money: an int (never a bool) of minor units, never below zero."""
    if isinstance(amount, bool) or not isinstance(amount, int):
        raise ValueError(f"{name} must be an integer (minor units), got {amount!r}")
    if amount < 0:
        raise ValueError(f"{name} must not be negative, got {amount} (minor units)")


def check_finite(owner: str, record: object) -> None:
    """Raise ValueError naming the first field of record that holds NaN or an infinity, neither a JSON number."""
    for name, value in vars(record).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{owner} {name} must be a finite number, got {value!r}")


def check_number(label: str, value: object, minimum: int | None = None, integral: bool = True) -> None:
    """Raise ValueError unless value is an int (a number if not integral), no bool, at least minimum (0 for numbers)."""
    if isinstance(value, bool) or not isinstance(value, int if integral else (int, float)):
        raise ValueError(f"{label} must be {'an integer' if integral else 'a number'}, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{label} must be at least {minimum}, got {value}" if integral
                         else f"{label} must not be negative, got {value:g}")


def parse_money(text: str) -> Money:
    """Parse a decimal amount in major units ("80", "80.25") into minor units.

    NaN, infinities and amounts of 10**15 major units or more are invalid:
    no price comes near that, a search priced with a far larger amount runs
    for tens of seconds, and the report cannot print its sums.
    """
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise ValueError(f"invalid money amount: {text!r}") from None
    if not value.is_finite() or value.copy_abs() >= _MONEY_LIMIT:
        raise ValueError(f"invalid money amount: {text!r}")
    cents = value.quantize(_CENT)  # exact for amounts below the limit
    if cents != value:
        raise ValueError(f"money amount has sub-cent precision: {text!r}")
    return int(cents * 100)


def parse_ratio(text: str) -> Fraction:
    """Parse "3" or "p/q" into a Fraction; decimal notation is rejected."""
    text = text.strip()
    if "." in text:
        raise ValueError(
            f"decimal ratios are ambiguous, use integers or p/q: {text!r}"
        )
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"invalid ratio: {text!r}") from None


def round_half_up(value: Fraction, quantum: Fraction = Fraction(1)) -> Fraction:
    """Round to the nearest multiple of ``quantum``, ties away from zero upward."""
    steps = (value / quantum + Fraction(1, 2)).__floor__()
    return steps * quantum


def fraction_text(value: Fraction, places: int = 2) -> str:
    """Render a Fraction as a short decimal string ("54", "8203.68")."""
    if value.denominator == 1:
        return f"{value.numerator:,}"
    quantized = (Decimal(value.numerator) / Decimal(value.denominator)).quantize(
        Decimal(1).scaleb(-places)
    )
    text = f"{quantized:,f}".rstrip("0").rstrip(".")
    return text
