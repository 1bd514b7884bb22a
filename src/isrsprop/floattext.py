"""CSV text of float blocks, each value as ``'%.9g' % value`` writes it.

:func:`csv_block` formats a 2-D float array, one CSV line per row, with
numpy operations on the whole block instead of one ``%`` call per value.
A value with a decimal exponent in [-4, 8] (fixed notation under ``%.9g``)
is encoded in one 16-byte slot, two little-endian uint64 words:

* the exponent e is ``floor(log10|x|)``, corrected by one where the
  9-digit mantissa lands outside [1e8, 1e9);
* the mantissa is ``rint(|x| * 10**(8 - e))``.  10**(8 - e) is an exact
  double for those exponents, so the product rounds once;
* its nine ASCII digits come from a table of the 1000 three-digit groups;
* a table row per class (sign, exponent, count of digits up to the last
  nonzero one, last value of a row or not) gives the shifts and masks
  that open a gap for the point (or for the ``0.`` prefix), shift the
  digits past the sign and prefix, cut the trailing zeros, and set the
  sign, prefix, point and separator bytes;
* each slot's text is left-justified and NUL-padded, so one masked
  compress of the block's bytes leaves the lines (a row ends in ``\\r``,
  widened to CRLF once at the end).

A value whose scaled fraction lies within 1e-6 of one half may round the
other way in exact decimal arithmetic than in the rounded product.  That
value, one with an exponent outside [-4, 8], zero, nan and inf are off this
path: each row holding one is formatted with ``%`` instead.
"""

from __future__ import annotations

import numpy as np

_LOW, _HIGH = -4, 8  # exponents written in fixed notation by %.9g
_POWERS = np.array([float(10**k) for k in range(_HIGH - _LOW + 1)])  # 10**k, exact doubles
_TIE_MARGIN = 0.5 - 1e-6  # the rounded product is off by at most 1.2e-7 below 1e9
_U8 = np.uint64(8)
_U56 = np.uint64(56)


def _digit_tables() -> tuple[np.ndarray, ...]:
    """ASCII words of the three-digit groups 000-999, one table per group position.

    The leading group fills bytes 0-2 of the low word, the middle group
    bytes 3-5, the last group bytes 6-7 (its third digit is the high word's
    byte 0, the fourth table).
    """
    d = np.arange(1000, dtype=np.uint64)
    ascii3 = ((d // 100 + 48) | (d // 10 % 10 + 48) << _U8 | (d % 10 + 48) << np.uint64(16))
    return ascii3, ascii3 << np.uint64(24), ascii3 << np.uint64(48), d % 10 + 48


def _significant_digits() -> tuple[np.ndarray, ...]:
    """Per group position: the count of the mantissa's digits up to the group's last nonzero one.

    0 for a group of zeros, so the largest of the three counts is the
    mantissa's (which is at least 1e8, so never 0).
    """
    d = np.arange(1000)
    last = np.select([d % 10 != 0, d % 100 != 0, d != 0], [3, 2, 1], 0)
    return tuple(np.where(last > 0, 3 * g + last, 0).astype(np.intp) for g in range(3))


def _class_table() -> tuple[np.ndarray, ...]:
    """The masks and shifts of :func:`csv_block`, one table row per class.

    Class ``((row_end * 2 + negative) * 13 + e + 4) * 10 + digits``.  Four
    tables of one word per class: the low-word mask of the digits before
    the gap, the shift of the last digit into the high word (8 when the gap
    is among the first nine bytes, else 0), the shift past the sign and
    prefix and its complement to 64 bits.  Then two tables of two words
    (low, high) per class: the bytes kept, and the constant bytes (sign,
    prefix, point and separator).
    """
    classes = [(row_end, negative, e, digits) for row_end in (0, 1) for negative in (0, 1)
               for e in range(_LOW, _HIGH + 1) for digits in range(10)]
    shifts = np.zeros((len(classes), 4), dtype=np.uint64)
    slots = bytearray(32 * len(classes))  # keep mask, then the constant bytes
    for c, (row_end, negative, e, digits) in enumerate(classes):
        if digits == 0:  # no mantissa has no digit
            continue
        if e < 0:  # '0.' and -e - 1 zeros, the gap being the prefix's last byte
            gap, shift = 0, negative - e
            text = "-" * negative + "0." + "0" * (-e - 1) + "d" * digits
        else:  # integer digits are shown even when zero; a point when a fraction follows
            gap, shift = e + 1, negative
            shown = max(digits, e + 1)
            text = "-" * negative + "d" * (e + 1)
            text += "." + "d" * (shown - e - 1) if shown > e + 1 else ""
        shifts[c] = (1 << 8 * min(gap, 8)) - 1, 8 if gap <= 8 else 0, 8 * shift, 64 - 8 * shift
        slot = 32 * c
        slots[slot:slot + len(text)] = b"\xff" * len(text)
        constant = text.replace("d", "\0") + ("\r" if row_end else ",")
        slots[slot + 16:slot + 16 + len(constant)] = constant.encode("ascii")
    words = np.frombuffer(bytes(slots), dtype="<u8").reshape(-1, 4)
    return (*(np.ascontiguousarray(column) for column in shifts.T),
            np.ascontiguousarray(words[:, :2]), np.ascontiguousarray(words[:, 2:]))


_GROUPS = _digit_tables()
_DIGITS = _significant_digits()
_GAP, _LAST_SHIFT, _SHIFT, _BACK, _KEEP, _FIXED = _class_table()
_NEGATIVE = 13 * 10
_ROW_END = 2 * _NEGATIVE


def csv_block(block: np.ndarray) -> str:
    """The CSV lines of a 2-D float array: ``'%.9g'`` per value, ``,`` between, CRLF after."""
    rows, cols = block.shape
    x = block.ravel()
    e, m, good = _exponent_and_mantissa(x)
    mantissa = m.astype(np.intp)
    del m
    first = mantissa // 1000000
    middle = mantissa // 1000
    last = middle * 1000
    np.subtract(mantissa, last, out=last)
    del mantissa
    middle -= first * 1000

    cls = e  # the class of each value, built in place of its exponent
    cls -= _LOW
    cls *= 10
    shown = _DIGITS[2].take(last)
    if not shown.all():  # a last group of zeros: the count ends in an earlier group
        np.maximum(_DIGITS[0].take(first), _DIGITS[1].take(middle), out=shown,
                   where=shown == 0)
    cls += shown
    del shown
    cls += np.signbit(x) * _NEGATIVE
    cls.reshape(rows, cols)[:, -1] += _ROW_END

    digits = _GROUPS[0].take(first)
    digits |= _GROUPS[1].take(middle)
    digits |= _GROUPS[2].take(last)
    hi = _GROUPS[3].take(last)
    del first, middle, last
    before_gap = _GAP.take(cls)
    before_gap &= digits
    digits ^= before_gap  # the digits after the gap
    hi <<= _LAST_SHIFT.take(cls)
    hi |= digits >> _U56
    digits <<= _U8
    digits |= before_gap  # the low word with the gap opened
    del before_gap

    words = np.empty((len(x), 2), dtype="<u8")
    lo_out, hi_out = words[:, 0], words[:, 1]
    shift = _SHIFT.take(cls)
    np.left_shift(hi, shift, out=hi_out)
    np.left_shift(digits, shift, out=lo_out)
    shift = _BACK.take(cls)
    digits >>= shift  # 0 where nothing crosses (a shift by 64)
    hi_out |= digits
    del digits, hi, shift
    words &= _KEEP.take(cls, axis=0)
    words |= _FIXED.take(cls, axis=0)
    del cls
    text = words.view(np.uint8).ravel()
    lines = text[text != 0].tobytes().replace(b"\r", b"\r\n").decode("ascii")
    if good.all():
        return lines
    return _splice(block, lines, good.reshape(rows, cols).all(axis=1))


def _exponent_and_mantissa(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(e, m, good)``: the decimal exponent and 9-digit mantissa of each |x|, and where they hold.

    Where ``good`` is False, e is 0 and m 1e8, a value whose text ``%``
    writes instead.
    """
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.log10(a)
        np.floor(e, out=e)
        good = np.abs(e - 2.0) <= 6.0  # e in [-4, 8]: False for 0, nan and inf
        if not good.all():
            e[~good] = 0.0
        e = e.astype(np.intp)
        scaled = _POWERS.take(_HIGH - e)
        scaled *= a
        m = np.rint(scaled)
        low, high = m < 1e8, m >= 1e9
        if low.any() or high.any():  # log10 rounded across a power of ten
            e += high
            e -= low
            good &= (e >= _LOW) & (e <= _HIGH)
            e[~good] = 0
            scaled = _POWERS.take(_HIGH - e)
            scaled *= a
            m = np.rint(scaled)
            good &= m < 1e9  # the mantissa carried: left to %
        del low, high, a
        # a mantissa that rounded up to 1e8 from below, or that the rounded
        # product may have rounded the other way, is left to % too
        good &= scaled >= 1e8
        scaled -= m
        np.abs(scaled, out=scaled)
        good &= scaled < _TIE_MARGIN
    if not good.all():
        m[~good] = 1e8
    return e, m, good


def _splice(block: np.ndarray, lines: str, good_rows: np.ndarray) -> str:
    """``lines`` with every row that is not in ``good_rows`` formatted by ``%`` instead."""
    fmt = ",".join(["%.9g"] * block.shape[1]) + "\r\n"
    encoded = lines.split("\r\n")
    return "".join(encoded[r] + "\r\n" if good else fmt % tuple(block[r].tolist())
                   for r, good in enumerate(good_rows.tolist()))
