"""Deterministic CSV/JSON output helpers.

Every file starts with (or embeds) the package version and a SHA-256 hash
of the canonicalized run configuration, so outputs are traceable and two
runs with identical config and seed produce byte-identical files.  No
timestamps are written.

Every float written goes through one kernel, ``_format``, as the exact
bytes Python itself would write: ``'%.17g' % v`` in CSV files and the
json module's spelling (``repr(v)``, or NaN, Infinity, -Infinity) in JSON
files.  The kernel works on a float64 array in bulk:

- it scales |v| by 10^(16-k) in double-double arithmetic (a table of
  10^s as pairs of doubles, a Dekker split and a two-product, float64
  ufuncs only), rounds to the 17-digit integer N and checks the decimal
  exponent k against the product, as log10 can be one off;
- for JSON it keeps the shortest digits whose correctly rounded value
  stays inside the value's half-ulp rounding interval (``_shortest``);
- it lays the text out as byte planes (plane j holds byte j of every
  value), with NUL bytes where a value has no character; the row writer
  drops them.

A value goes through Python's own formatting instead, one value at a
time, when the bulk arithmetic cannot decide it with certainty: its
digits lie within 1e-6 (in units of the last digit) of a rounding tie or
of its rounding interval's boundary, it is a power of two (JSON: its
interval is asymmetric), it is not finite, or |v| lies outside [1e-280,
1e280].  ``_fallback_text`` is the package's only use of Python float
formatting for output.

Rows are built a chunk at a time in byte planes: literals, formatted
columns and preformatted text (a model's coordinates) are written as
contiguous slices, and one compaction per chunk drops the NUL bytes.  A
number known to repeat is formatted once: a snapshot reuses its model's
coordinate text and writes a field that is constant over the grid as a
literal, and the dispersion and sweep tables format each magnitude or
material point once for all the rows it leads.

Inside ``tally()``, the writers count the files and bytes they write and
the values the kernel formats, and how many of those took the fallback.

The one exception to byte identity is telemetry: ``verify_report.json``,
written by ``verification.run_all``, records each suite's wall time.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import hashlib
import json
from pathlib import Path

import numpy as np

from . import __version__
from .plate_fields import KINEMATIC_FIELDS

# Values formatted in one kernel call, so that a chunk's temporaries stay
# near 1 MiB
_CHUNK_VALUES = 4096

# Byte planes of one formatted value: the sign, "0." and up to three zeros
# (fixed notation below 1), 17 digits with a point among them, and the
# exponent "e+dd" or "e+ddd"
_PLANES = 29

# The bulk path's range of |v|, and how close (in units of the 17th digit)
# to a tie or an interval boundary it leaves a value to the fallback
_TINY, _HUGE = 1e-280, 1e280
_MARGIN = 1e-6

# Decimal exponents of the tables: k of any value the bulk path formats,
# with room for log10 being one off and for a carry into a new decade
_K_MIN, _K_MAX = -282, 282
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter


class WriteTally:
    """What the writers wrote inside ``tally()``: files, bytes, values
    formatted and values that took the fallback."""

    def __init__(self):
        self.files = self.bytes = self.values = self.fallbacks = 0


_TALLY = contextvars.ContextVar("io_utils_tally", default=None)


@contextlib.contextmanager
def tally():
    """Count, in the returned ``WriteTally``, what the writers write while
    the block runs."""
    counts = WriteTally()
    token = _TALLY.set(counts)
    try:
        yield counts
    finally:
        _TALLY.reset(token)


def _frozen(table: np.ndarray) -> np.ndarray:
    """``table`` made read-only: the cached tables are shared."""
    table.flags.writeable = False
    return table


@functools.cache
def _pow10() -> np.ndarray:
    """10^s for s = 16 - k over the table's k, one row (hi, hi's upper and
    lower 26-bit halves, lo) each, with hi + lo = 10^s to about 2^-106:
    hi and lo are correctly rounded quotients of Python integers."""
    rows = []
    for s in range(16 - _K_MAX, 17 - _K_MIN):
        num, den = 10 ** max(s, 0), 10 ** max(-s, 0)
        hi = num / den
        n, d = hi.as_integer_ratio()
        c = _SPLIT * hi
        upper = c - (c - hi)
        rows.append((hi, upper, hi - upper, (num * d - n * den) / (den * d)))
    return _frozen(np.array(rows))


@functools.cache
def _digits4():
    """The four ASCII digits of 0..9999, one uint32 each."""
    d = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    return _frozen((d + 48).astype(np.uint8).view(np.uint32).ravel())


@functools.cache
def _layout(json_style: bool):
    """Per decimal exponent k: the planes "0.000" (NUL where unused) and
    "e+ddd" (NUL for the hundreds of a two-digit exponent), the plane of
    the point among the digit planes (18: none), and the fewest digits
    shown; one 16-byte row each, viewed as two uint64."""
    upper = 16 if json_style else 17  # exponent notation from 10^upper
    rows = np.zeros((_K_MAX - _K_MIN + 1, 16), np.uint8)
    for k, row in zip(range(_K_MIN, _K_MAX + 1), rows):
        if k < -4 or k >= upper:
            row[5:10] = np.frombuffer(b"e%+04d" % k, np.uint8)
            if abs(k) < 100:
                row[7] = 0
            row[10], row[11] = 1, 1
        elif k < 0:
            lead = b"0." + b"0" * (-k - 1)
            row[:len(lead)] = np.frombuffer(lead, np.uint8)
            row[10], row[11] = 18, 1
        else:
            # JSON writes an integral value with ".0"
            row[10], row[11] = k + 1, k + 1 + json_style
    return _frozen(rows.view(np.uint64))


def _scaled(a: np.ndarray, k: np.ndarray):
    """a * 10^(16-k) as hi + lo: hi = fl(a * 10^(16-k)), exact error terms
    summed into lo; and 10^(16-k) itself."""
    hi, hu, hl, lo10 = np.take(_pow10(), _K_MAX - k, axis=0).T
    p = a * hi
    c = a * _SPLIT
    au = c - (c - a)
    al = a - au
    lo = au * hu - p
    lo += au * hl
    lo += al * hu
    lo += al * hl
    lo += a * lo10
    return p, lo, hi


def _fallback_text(v: float, json_style: bool) -> str:
    """Python's own text of ``v``: for a value the bulk path leaves."""
    return json.dumps(v) if json_style else "%.17g" % v


_J17 = np.arange(1, 18, dtype=np.uint8)[:, None]
_J18 = np.arange(18, dtype=np.uint8)[:, None]


def _decimal(x: np.ndarray, json_style: bool):
    """(N, k, slow) of the floats x: N the 17 significant digits of |x|
    (for JSON, the shortest ones padded to 17) and k its decimal exponent,
    both 0 where |x| is not in the bulk path's range; ``slow`` marks the
    values left to the fallback, zeros among them."""
    a = np.abs(x)
    bulk = (a >= _TINY) & (a <= _HUGE)
    a = np.where(bulk, a, 1.0)
    k = np.log10(a)
    k = np.floor(k, out=k).astype(np.int64)
    p, lo, scale = _scaled(a, k)
    # log10 can be one off: keep k only where a * 10^(16-k) is in
    # [1e16, 1e17), deciding the edges by hi + lo exactly
    fix = np.flatnonzero((p <= 1e16) | (p >= 1e17))
    if fix.size:
        pf, lf = p[fix], lo[fix]
        off = (((pf > 1e17) | ((pf == 1e17) & (lf >= 0))).astype(np.int64)
               - ((pf < 1e16) | ((pf == 1e16) & (lf < 0))))
        fix, off = fix[off != 0], off[off != 0]
        k[fix] += off
        p[fix], lo[fix], scale[fix] = _scaled(a[fix], k[fix])
    # N: the 17 significant digits; lo - its rounding: the remainder
    # hi >= 1e16 > 2**53 is an integer
    r = np.rint(lo)
    lo -= r
    N = p.astype(np.int64)
    N += r.astype(np.int64)
    slow = 0.5 - np.abs(lo) < _MARGIN
    slow |= ~bulk
    if json_style:
        bits = a.view(np.int64)
        slow |= (bits & (2**52 - 1)) == 0
        # half an ulp of a normal a is its leading power of two times 2^-53
        half_ulp = (bits & (2047 << 52)).view(np.float64)
        half_ulp *= scale
        half_ulp *= 2.0**-53
        N = _shortest(N, lo, half_ulp, slow)
    N *= bulk
    k *= bulk
    carry = N == 10**17
    N -= carry * (9 * 10**16)
    k += carry
    return N, k, slow


def _format(values: np.ndarray, json_style: bool = False) -> np.ndarray:
    """Byte planes (``_PLANES``, n) of the floats ``values`` (n,): each
    column's non-NUL bytes, in order, are ``'%.17g' % v`` or, with
    ``json_style``, the json module's text of v."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    n = x.size
    N, k, slow = _decimal(x, json_style)

    # digit planes 1..17 of G; planes 0 and 18 are NUL, for the shift below
    digits = _digits4()
    groups = np.empty((n, 5), np.uint32)
    upper = N // 10**8
    N -= upper * 10**8
    lead = upper // 10**8
    upper -= lead * 10**8
    groups[:, 0] = np.take(digits, lead)
    for col, part in ((1, upper), (3, N)):
        q = part // 10**4
        groups[:, col] = np.take(digits, q)
        groups[:, col + 1] = np.take(digits, part - q * 10**4)
    G = np.zeros((19, n), np.uint8)
    G[1:18] = groups.view(np.uint8)[:, 3:].T

    out = np.empty((_PLANES, n), np.uint8)
    out[0] = np.signbit(x) * np.uint8(ord("-"))
    layout = np.take(_layout(json_style), k - _K_MIN, axis=0).view(np.uint8).T
    out[1:6] = layout[0:5]
    out[24:29] = layout[5:10]
    point = layout[10].copy()
    # digits shown: up to the last nonzero one, and at least the layout's
    shown = ((G[1:18] != ord("0")) * _J17).max(axis=0)
    np.maximum(shown, layout[11], out=shown)
    G[1:18] *= _J17 <= shown
    # digit planes 0..17: digit j up to the point's plane, j - 1 after it;
    # on the point's plane, digit j (shown when a digit follows the point)
    # is capped to "."
    body = G[0:18] - G[1:19]
    body *= _J18 > point
    body += G[1:19]
    np.minimum(body, np.uint8(255) - (_J18 == point) * np.uint8(255 - 46),
               out=body)
    out[6:24] = body

    slow &= x != 0
    slow_at = np.flatnonzero(slow)
    for i in slow_at.tolist():
        text = _fallback_text(float(x[i]), json_style).encode()
        out[:, i] = 0
        out[:len(text), i] = np.frombuffer(text, np.uint8)
    counts = _TALLY.get()
    if counts is not None:
        counts.values += n
        counts.fallbacks += slow_at.size
    return out


def _shortest(N, f, half_ulp, slow):
    """The shortest correctly rounded digits, padded to 17, of each value
    N + f (N its 17 digits, f the remainder, in units of the 17th digit)
    that lie inside its rounding interval of half-width ``half_ulp``.

    17 digits always lie inside.  The nearest multiple of 10 is the
    16-digit candidate.  The interval is narrower than 23 units, so at most
    one multiple of 100 lies inside: when the nearest one does, its digits
    less their trailing zeros are the shortest, and when it does not, no
    shorter candidate does.  A candidate within the margin of the
    interval's boundary, or two tied candidates inside, mark the value
    ``slow``."""
    out = N
    for q in (10, 100):
        below = N // q * q
        down = (N - below) + f
        up = q - down
        d = np.minimum(down, up)
        inside = d < half_ulp
        slow |= np.abs(d - half_ulp) < _MARGIN
        slow |= (np.abs(up - down) < _MARGIN) & inside
        out = np.where(inside, below + q * (up < down), out)
    return out


def _texts(values, json_style: bool = False) -> list[str]:
    """The kernel's text of each float in ``values``, one str each."""
    planes = _format(np.asarray(values, dtype=float), json_style)
    rows = planes.T
    keep = rows != 0
    text = rows[keep].tobytes().decode()
    ends = np.cumsum(keep.sum(axis=1)).tolist()
    return [text[i:j] for i, j in zip([0, *ends], ends)]


def _text_rows(n_rows: int, pieces, columns, json_style: bool = False):
    """The text of rows 0..n_rows, as a stream of uint8 arrays, a chunk of
    rows each.

    Each row is ``pieces`` in turn: a bytes piece is written on every row;
    an int j is the row's float ``columns[row, j]``, formatted once per
    chunk however often it is written; a callable gives ``(start,
    stop)``'s byte planes (width, stop - start) of preformatted text.
    NUL bytes are padding: no text written holds one."""
    merged = []
    for p in pieces:
        if isinstance(p, bytes) and merged and isinstance(merged[-1], bytes):
            merged[-1] += p
        else:
            merged.append(p)
    m = columns.shape[1]
    step = max(1, _CHUNK_VALUES // max(m, 1))
    for start in range(0, n_rows, step):
        stop = min(start + step, n_rows)
        if m:
            values = _format(columns[start:stop].T, json_style)
            values = values.reshape(_PLANES, m, stop - start)
        blocks = [np.frombuffer(p, np.uint8)[:, None] if isinstance(p, bytes)
                  else values[:, p] if isinstance(p, int)
                  else p(start, stop) for p in merged]
        rows = np.empty((sum(len(b) for b in blocks), stop - start), np.uint8)
        at = 0
        for b in blocks:
            rows[at:at + len(b)] = b
            at += len(b)
        text = rows.T.copy()
        yield text[text != 0]


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _header(cfg_hash: str) -> bytes:
    return f"# cosserat-plate v{__version__} config_sha256={cfg_hash}\n".encode()


@contextlib.contextmanager
def _output(path):
    """The file at ``path``, opened to write bytes; counted when closed."""
    with open(Path(path), "wb") as f:
        yield f
        counts = _TALLY.get()
        if counts is not None:
            counts.files += 1
            counts.bytes += f.tell()


def _write_lines(path, cfg_hash: str, columns: list[str], chunks) -> None:
    with _output(path) as f:
        f.write(_header(cfg_hash))
        f.write((",".join(columns) + "\n").encode())
        f.writelines(chunks)


def write_csv(path, cfg_hash: str, columns: list[str], rows) -> None:
    """One line per row; a cell that is not a str is written as the
    ``%.17g`` of its float."""
    rows = [list(row) for row in rows]
    at = [(row, j) for row in rows for j, x in enumerate(row)
          if not isinstance(x, str)]
    for (row, j), text in zip(at, _texts([row[j] for row, j in at])):
        row[j] = text
    _write_lines(path, cfg_hash, columns,
                 ((",".join(row) + "\n").encode() for row in rows))


def coordinate_text(X, Y) -> bytes:
    """The byte planes of each node's "x1,x2" as snapshots write it, in
    the order of ``X.ravel()`` (planes of x1, a comma, planes of x2)."""
    n = np.size(X)
    x, y = np.split(_format(np.concatenate([np.ravel(X), np.ravel(Y)])), 2,
                    axis=1)
    comma = np.full((1, n), ord(","), np.uint8)
    return np.concatenate([x[x.any(axis=1)], comma,
                           y[y.any(axis=1)]]).tobytes()


def write_snapshot(path, cfg_hash: str, model, state=None,
                   kinematics=None) -> None:
    """One row per grid node: x1, x2, then the nine kinematic fields.

    The coordinates are the model's ``coordinate_text``, formatted once per
    model.  A field that holds one float64 bit pattern on every node (the
    fields of a subsystem at rest, say) is written as that value's text in
    every row, formatted once; bits, not ==, decide, so +0 and -0 keep
    their own spellings."""
    kin = kinematics if kinematics is not None else state.kinematics()
    fields = np.stack([np.broadcast_to(np.asarray(getattr(kin, n), dtype=float),
                                       model.X.shape) for n in KINEMATIC_FIELDS])
    fields = fields.reshape(len(KINEMATIC_FIELDS), -1)
    bits = fields.view(np.int64)
    constant = np.all(bits == bits[:, :1], axis=1)
    n = fields.shape[1]
    coords = np.frombuffer(model.coordinate_text, np.uint8).reshape(-1, n)
    pieces = [lambda start, stop: coords[:, start:stop]]
    literals = iter(_texts(fields[constant, 0]))
    varying = iter(range(len(fields)))
    for c in constant:
        pieces += [b",", next(literals).encode() if c else next(varying)]
    _write_lines(path, cfg_hash, ["x1", "x2", *KINEMATIC_FIELDS],
                 _text_rows(n, [*pieces, b"\n"], fields[~constant].T))


def write_energy_log(path, cfg_hash: str, energy) -> None:
    e = energy.as_arrays()
    rows = zip(e["t"], e["kinetic"], e["strain"], e["external_work"], e["total"])
    write_csv(path, cfg_hash,
              ["t", "kinetic", "strain", "external_work", "total"], rows)


def write_dispersion(path, cfg_hash: str, results) -> None:
    """results: list of (direction_label, k_mags (n,), flexural (n, nf),
    extensional (n, ne)); per magnitude, one row per flexural then per
    extensional branch.  Each magnitude is formatted once for its rows."""
    def chunks():
        for label, mags, flex, ext in results:
            lead = f"{label},".encode()
            pieces = []
            for sub, first, count in (("flexural", 1, flex.shape[1]),
                                      ("extensional", 1 + flex.shape[1],
                                       ext.shape[1])):
                for b in range(count):
                    pieces += [lead, 0, f",{b},".encode(), first + b,
                               f",{sub}\n".encode()]
            yield from _text_rows(len(mags), pieces, np.column_stack(
                [np.asarray(mags, dtype=float), flex, ext]))

    _write_lines(path, cfg_hash,
                 ["direction", "xi_mag", "branch", "omega", "subsystem"],
                 chunks())


def write_sweep(path, cfg_hash: str, points, quantities) -> None:
    """One row per material point, quantity and branch: the point's
    (N, l_t, l_b, Psi), the quantity's label, the branch and its value.
    ``quantities`` is a list of (label, values (len(points), branches)),
    empty when there are no points.  Each point is formatted once for its
    rows."""
    chunks = ()
    if quantities:
        key = [0, b",", 1, b",", 2, b",", 3]
        pieces, j = [], 4
        for label, values in quantities:
            for b in range(values.shape[1]):
                pieces += [*key, f",{label},{b},".encode(), j, b"\n"]
                j += 1
        columns = np.hstack([np.reshape(points, (-1, 4)).astype(float),
                             *(values for _, values in quantities)])
        chunks = _text_rows(len(columns), pieces, columns)
    _write_lines(path, cfg_hash,
                 ["N", "l_t", "l_b", "Psi", "quantity", "branch", "value"],
                 chunks)


def write_summary(path, cfg_hash: str, payload: dict) -> None:
    """``payload`` with the version and config hash, written as exactly the
    bytes of ``json.dump(..., indent=2, sort_keys=True)`` plus a newline.
    Float arrays go through the kernel, streamed in chunks, instead of
    through the json module's pure-Python encoder."""
    payload = dict(payload)
    payload["version"] = __version__
    payload["config_sha256"] = cfg_hash
    with _output(path) as f:
        _write_json(f, payload, 0)
        f.write(b"\n")


def _json_default(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON serializable: {type(x)}")


# Lays out everything but float64 arrays.  Its output holds a raw newline
# only before an indent (strings escape theirs), so a subtree nested
# ``level`` deep is its output with "  " * level after every newline.
_JSON = json.JSONEncoder(indent=2, sort_keys=True, default=_json_default)


def _write_json(f, obj, level: int) -> None:
    """Write ``obj`` as ``_JSON`` would at nesting depth ``level``."""
    if isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim \
            and obj.size:
        _write_float_array(f, obj, level)
    elif isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        indent = "\n" + "  " * (level + 1)
        for i, key in enumerate(sorted(obj)):
            f.write((("," if i else "{") + indent + json.dumps(key)
                     + ": ").encode())
            _write_json(f, obj[key], level + 1)
        f.write(("\n" + "  " * level + "}").encode())
    else:
        newline = "\n" + "  " * level
        for chunk in _JSON.iterencode(obj):
            f.write(chunk.replace("\n", newline).encode())


def _write_float_array(f, a: np.ndarray, level: int) -> None:
    """A nonempty float64 array of one or more dimensions, as ``_JSON``
    lays out its ``.tolist()``: one row per innermost list (per value when
    there is one axis or the list is longer than a chunk), its values
    separated by a comma and an indent.  A row is led by the text between
    it and the value before it, which depends on how many of the innermost
    axes the row starts afresh: one of ``a.ndim`` separators, chosen on
    rows at fixed strides."""
    m = a.ndim

    def indent(depth):
        return b"\n" + b"  " * (level + depth)

    seps = [b"," + indent(m)]
    for d in range(1, m):
        seps.append(b"".join(indent(t) + b"]" for t in range(m - 1, m - 1 - d, -1))
                    + b"," + b"".join(indent(t) + b"[" for t in range(m - d, m))
                    + indent(m))
    first = b"".join(b"[" + indent(t + 1) for t in range(m))
    width = max(len(s) for s in [*seps, first])
    planes = np.stack([np.frombuffer(s.ljust(width, b"\0"), np.uint8)
                       for s in [*seps, first]])[..., None]
    run = a.shape[-1] if m > 1 and a.shape[-1] <= _CHUNK_VALUES else 1
    # rows between the starts of two lists of each depth
    strides = [p // run for p in np.cumprod(a.shape[::-1])[:-1].tolist()]

    def separators(start, stop):
        out = np.empty((width, stop - start), np.uint8)
        out[:] = planes[0]
        for d, stride in enumerate(strides, 1):
            out[:, (-start) % stride::stride] = planes[d]
        if start == 0:
            out[:, :1] = planes[m]
        return out

    pieces = [separators, 0]
    for j in range(1, run):
        pieces += [seps[0], j]
    f.writelines(_text_rows(a.size // run, pieces, a.reshape(-1, run),
                            json_style=True))
    f.write(b"".join(indent(t) + b"]" for t in range(m - 1, -1, -1)))
