"""The one scalar grammar of the JSON reader (`io.parse_rational`).

A rational is a JSON integer, or a string `[+-]?D+`, `[+-]?D+/D+` (nonzero
denominator) or `[+-]?D+.D+` of ASCII digits, at most 4,300 characters long.
Each accepted form must read as `Fraction(s)` would read it; every other
string must be an `InputError` naming it, in time linear in its length.
"""

import random
import time
from fractions import Fraction

import pytest

from cartanext import io
from cartanext.errors import InputError


def _digits(rng, low=1, high=6):
    return "".join(rng.choice("0123456789") for _ in range(rng.randint(low, high)))


def _accepted(rng) -> str:
    sign = rng.choice(["", "", "-", "+"])
    form = rng.randrange(3)
    if form == 0:
        return sign + _digits(rng)
    if form == 1:
        return f"{sign}{_digits(rng)}/{_digits(rng, 0, 4)}{rng.choice('123456789')}"
    return f"{sign}{_digits(rng)}.{_digits(rng)}"


def test_every_accepted_form_reads_as_fraction():
    rng = random.Random(4300)
    cases = [_accepted(rng) for _ in range(2000)]
    cases += ["0", "-0", "+0", "007", "0/4", "0.0", "1.50", "-0.5", "9" * 4300,
              "1/" + "7" * 4298, 0, 5, -12, 10 ** 30]
    for s in cases:
        value = io.parse_rational(s)
        assert type(value) is Fraction and value == Fraction(s), s


@pytest.mark.parametrize("s", [
    "1e3", "1E3", "1.5e2", " 7 ", "7 ", "\t7", "7\n", "1_000", "3/+4", "3/-4", "1/0",
    "-5/00", "", "+", "-", "/", "1/", "/2", ".5", "5.", "1.2.3", "1/2/3", "1/2.5", "0x10",
    "inf", "nan", "٣", "１", "²", "9" * 5000, "1/" + "3" * 5000,
])
def test_other_strings_are_input_errors_naming_them(s):
    with pytest.raises(InputError, match="cannot parse rational from"):
        io.parse_rational(s)


@pytest.mark.parametrize("value", [None, 2.5, 1.0, [1], {"p": 1}])
def test_other_json_values_are_input_errors(value):
    with pytest.raises(InputError):
        io.parse_rational(value)


def test_an_exponent_is_refused_without_being_expanded():
    # Fraction("1e200000000") builds a 200-million-digit integer first
    start = time.process_time()
    with pytest.raises(InputError, match="1e200000000"):
        io.parse_rational("1e200000000")
    with pytest.raises(InputError):
        io.mat_from_json([["1e200000000"]])
    assert time.process_time() - start < 1.0


def test_matrix_shape_errors_are_kept():
    for rows in ("1", [1, 2], [["1"], "2"]):
        with pytest.raises(InputError, match="a matrix must be a list of rows"):
            io.mat_from_json(rows)
    with pytest.raises(InputError, match="^ragged rows$"):
        io.mat_from_json([["1", "0"], ["1"]])
    with pytest.raises(InputError, match="cannot parse rational from 'x'"):
        io.mat_from_json([["0", "x"]])
