"""Differential tests of scalar parsing, printing and hashing against Fraction.

``parse_scalar``, ``render_scalar`` and ``Scalar.__hash__`` read the integer
triple directly, and only the forms that are not digits with an optional
``/digits`` go through ``fractions.Fraction``.  The reference below is the
Fraction-based code they replace, copied verbatim: it parses every part with
``Fraction``, prints from the ``Fraction`` parts and hashes the equal
``Fraction`` (or the pair of them).  Inputs, outputs, hashes and error texts
must agree, except that a part with more digits than
``sys.get_int_max_str_digits()`` is now refused (the reference accepts it,
and printing it then fails).
"""

import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hvkit.cli import main
from hvkit.errors import ParseError
from hvkit.scalars import Scalar, parse_scalar, render_scalar

# -- the Fraction-based reference ---------------------------------------------


def _ref_render_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def ref_render(s: Scalar) -> str:
    re, im = s.re, s.im
    if not im:
        return _ref_render_rational(re)
    if im == 1:
        imag = "i"
    elif im == -1:
        imag = "-i"
    else:
        imag = f"{_ref_render_rational(im)}*i"
    if not re:
        return imag
    sign = "+" if im > 0 else "-"
    mag = abs(im)
    imag = "i" if mag == 1 else f"{_ref_render_rational(mag)}*i"
    return f"{_ref_render_rational(re)}{sign}{imag}"


_CHUNK = re.compile(r"[+-][^+-]+")


def ref_parse(text: str) -> Scalar:
    s = text.strip().replace(" ", "").replace("−", "-")
    if not s:
        raise ParseError("empty scalar string")
    if s[0] not in "+-":
        s = "+" + s
    chunks = _CHUNK.findall(s)
    if "".join(chunks) != s:
        raise ParseError(f"malformed scalar {text!r}")
    re_part = im_part = None
    for chunk in chunks:
        sign = -1 if chunk[0] == "-" else 1
        body = chunk[1:]
        try:
            if body.endswith("i"):
                core = body[:-1].rstrip("*")
                value = Fraction(1) if core == "" else Fraction(core)
                if im_part is not None:
                    raise ParseError(f"two imaginary parts in {text!r}")
                im_part = sign * value
            else:
                if re_part is not None:
                    raise ParseError(f"two real parts in {text!r}")
                re_part = sign * Fraction(body)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"malformed scalar {text!r}") from exc
    return Scalar(re_part or 0, im_part or 0)


def ref_hash(s: Scalar) -> int:
    a, b, d = s.triple
    if not b:
        return hash(a) if d == 1 else hash(Fraction(a, d))
    return hash((s.re, s.im))


def _outcome(fn, text):
    try:
        return fn(text)
    except ParseError as exc:
        return ("ParseError", str(exc))


# -- strategies: Gaussian rationals with large heights -------------------------

MODULUS = sys.hash_info.modulus  # 2**61 - 1 on 64-bit builds
parts = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**30)),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.sampled_from([MODULUS, 3 * MODULUS, MODULUS * MODULUS])),
)
gaussians = st.one_of(st.builds(Scalar, parts), st.builds(Scalar, parts, parts), st.builds(Scalar, st.just(0), parts))


@settings(max_examples=300)
@given(gaussians)
def test_render_matches_the_fraction_reference(s):
    assert render_scalar(s) == ref_render(s)


@settings(max_examples=300)
@given(gaussians)
def test_hash_matches_the_fraction_reference(s):
    assert hash(s) == ref_hash(s)
    if s.is_real:
        assert hash(s) == hash(s.re)


@settings(max_examples=300)
@given(gaussians, st.sampled_from(["", " ", "  "]), st.booleans())
def test_parse_matches_the_reference_and_round_trips(s, pad, unicode_minus):
    text = pad + render_scalar(s).replace("*i", "i" if pad else "*i") + pad
    if unicode_minus:
        text = text.replace("-", "−")
    assert parse_scalar(text) == ref_parse(text) == s
    assert parse_scalar(render_scalar(s)) == s


def test_hash_at_the_hash_modulus():
    """Fraction hashes a denominator divisible by the modulus to ``sys.hash_info.inf``."""
    inf = sys.hash_info.inf
    assert hash(Scalar(Fraction(1, MODULUS))) == hash(Fraction(1, MODULUS)) == inf
    assert hash(Scalar(Fraction(-3, MODULUS))) == hash(Fraction(-3, MODULUS)) == -inf
    cases = [
        Scalar(1, Fraction(1, MODULUS)),  # triple (P, 1, P): the real part is 1
        Scalar(Fraction(2, 3 * MODULUS), Fraction(5, 7)),
        Scalar(Fraction(-5, MODULUS), Fraction(4, MODULUS)),
        Scalar(Fraction(MODULUS + 1, MODULUS * MODULUS), 0),
    ]
    for s in cases:
        assert hash(s) == ref_hash(s)


FRACTION_FORMS = [
    "0.5",
    "1e3",
    "1_0/3",
    "−3/4",
    "−1/2−1/3*i",
    "١٢/٣",
    "٣/٤+١*i",
    "2.5e2+0.5*i",
    "1E3i",
    ".25-1.5*i",
    "1.e2",
    "0e5",
    "00012/0004",
]


@pytest.mark.parametrize("text", FRACTION_FORMS)
def test_fraction_forms_match_the_reference(text):
    got = parse_scalar(text)
    assert got == ref_parse(text)
    assert render_scalar(got) == ref_render(got)


ERRORS = ["1/0", "", "1/2/3", "2ii", "x", "i+i", "1+2", "1++2", "   ", "1/", "/2", "1e", "1e-3", "1/2e3", "½", "1\te5"]


@pytest.mark.parametrize("text", ERRORS)
def test_error_texts_match_the_reference(text):
    want = _outcome(ref_parse, text)
    assert want[0] == "ParseError"
    assert _outcome(parse_scalar, text) == want


# -- the digit limit -----------------------------------------------------------

LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_limit = pytest.mark.skipif(not LIMIT, reason="this interpreter sets no int digit limit")


@needs_limit
@pytest.mark.parametrize(
    "text",
    [f"1e{LIMIT}", f"1e{LIMIT}i", "9" * (LIMIT + 1), "1/1" + "0" * LIMIT, f"1/2+1e{LIMIT}*i", f"0.5e{LIMIT + 1}", "1e20000000"],
    ids=["exponent", "imaginary-exponent", "numerator", "denominator", "gaussian", "decimal", "huge-exponent"],
)
def test_a_part_past_the_digit_limit_is_refused(text):
    start = time.perf_counter()
    with pytest.raises(ParseError, match=f"more than {LIMIT} digits"):
        parse_scalar(text)
    assert time.perf_counter() - start < 1


@needs_limit
def test_parts_at_the_digit_limit_are_read():
    top = parse_scalar(f"1e{LIMIT - 1}")
    assert top == 10 ** (LIMIT - 1)
    assert render_scalar(top) == "1" + "0" * (LIMIT - 1)
    assert parse_scalar("9" * LIMIT + "/7") == Scalar(Fraction(10**LIMIT - 1, 7))
    assert parse_scalar("0e20000000") == 0
    assert parse_scalar(f"0.{'0' * 10}1e{LIMIT + 10}") == 10**LIMIT // 10


@needs_limit
def test_the_cli_refuses_a_huge_scalar_naming_its_field(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(
        '{"command": "weights", "module": {"family": "intermediate", "alpha": "1e%d", "beta": "0", "F": "1"}}' % LIMIT,
        encoding="utf-8",
    )
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error: module.alpha: ")
