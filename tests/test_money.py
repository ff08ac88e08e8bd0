from fractions import Fraction

import pytest

from fattree_design.money import (
    format_money,
    fraction_text,
    parse_money,
    parse_ratio,
    round_half_up,
)


@pytest.mark.parametrize(
    "amount,expected",
    [
        (1_100_000, "$11,000"),
        (8000, "$80"),
        (251_532_000, "$2,515,320"),
        (12_345, "$123.45"),
        (0, "$0"),
        (-9950, "-$99.50"),
    ],
)
def test_format_money(amount, expected):
    assert format_money(amount) == expected


def test_format_money_other_currency():
    assert format_money(100, "CHF") == "CHF 1"


def test_parse_money():
    assert parse_money("80") == 8000
    assert parse_money("80.25") == 8025
    with pytest.raises(ValueError):
        parse_money("80.253")
    with pytest.raises(ValueError):
        parse_money("not-money")
    assert parse_money("999999999999999.99") == 99_999_999_999_999_999
    assert parse_money("1E+2") == 10000


@pytest.mark.parametrize(
    "text", ["inf", "Infinity", "-inf", "nan", "NaN", "sNaN", "1e999999999", "-1e999999999", "1e15", "-1e15"]
)
def test_parse_money_rejects_non_finite_and_overflowing_amounts(text):
    with pytest.raises(ValueError) as raised:
        parse_money(text)
    assert str(raised.value) == f"invalid money amount: {text!r}"


@pytest.mark.parametrize("text", ["1.0000000000000000000000000001", "1e-999999999"])
def test_parse_money_sees_sub_cent_digits_past_the_decimal_precision(text):
    with pytest.raises(ValueError, match="sub-cent precision"):
        parse_money(text)


def test_parse_ratio():
    assert parse_ratio("2") == Fraction(2)
    assert parse_ratio("11") == Fraction(11)
    assert parse_ratio("3/2") == Fraction(3, 2)
    with pytest.raises(ValueError):
        parse_ratio("0.5")
    with pytest.raises(ValueError):
        parse_ratio("1/0")


def test_round_half_up():
    assert round_half_up(Fraction(1_100_000, 36), Fraction(100)) == 30_600
    assert round_half_up(Fraction(152, 36), Fraction(1, 100)) == Fraction(422, 100)
    assert round_half_up(Fraction(5, 2)) == 3


def test_fraction_text():
    assert fraction_text(Fraction(54)) == "54"
    assert fraction_text(Fraction(820368, 100)) == "8,203.68"
    assert fraction_text(Fraction(1, 3), places=2) == "0.33"
