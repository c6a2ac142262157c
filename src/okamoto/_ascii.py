"""The byte format of cli's tables: a slice of rows whose fields are all %.17g on float64
arrays or %d on ranges or int64 arrays in [0, 2^53), made as bytes by numpy."""
import numpy as np


def _tables():
    """rows's tables: 4-digit groups as 4 ASCII bytes in a uint32, each k < 10^4 at k plain,
    at 10^4 + k with its trailing zeros as NUL and at 2 10^4 + k with its leading zeros as NUL;
    at 3 10^4 + 10 z + d, a float's group 0: z zeros, then its leading digit d; 10.0^s; 5^s."""
    # the 4 digits of each k as a row of uint8: a string a group costs 1 MB of a process's peak
    k = np.arange(10**4, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10
    plain, seen = (k + 48).astype(np.uint8), k > 0
    first = b"".join(bytes(3 - z) + b"0" * z + bytes([48 + d]) for z in range(4) for d in range(10))
    groups = np.concatenate([plain, plain * np.logical_or.accumulate(seen[:, ::-1], 1)[:, ::-1],
                             plain * np.logical_or.accumulate(seen, 1),
                             np.frombuffer(first, np.uint8).reshape(40, 4)])
    return (groups.view(np.uint32).ravel(),
            10.0 ** np.arange(21), 5 ** np.arange(21, dtype=np.uint64))


_GROUPS, _TENS, _FIVES = _tables()  # built once, at import


def rows(pieces, cols):
    """The rows of cols under the template pieces, newline-joined, made as bytes: each
    field is %.17g on a float64 array, or %d on a range or an int64 array of ints in
    [0, 2^53).

    A row of text is a row of a 2-D uint8 array over a bytearray of m copies of the row
    template; one translate drops its NUL bytes and so joins the rows, which is why a
    template literal must be ASCII with no NUL.  Literals and fields follow each other
    unpadded, and a field's 4-digit groups from _tables are written through a uint32
    view of its bytes, at whatever offset it starts.  A float's 24 bytes hold "0." and
    20 digits after 2 NULs, or Python's %.17g text of a value outside [1e-4, 1), padded
    with NUL; an int's hold as many groups as the slice's largest value needs.  Of the
    three variants of a group, a float's 17 digits take groups 1 to 4 plain up to the last
    non-zero one and trailing-stripped from there on, and group 0 from the entries for its
    z leading zeros; an int's take the leading-stripped variant up to the first non-zero
    group, and the int 0 the entry "0".  The scratch arrays are made together, as
    scattered 1-D temporaries pin glibc's heap, and freed before the join.

    For x = m 2^-e in [1e-4, 1), s = 16 - floor(log10 x) is 17 plus the count of
    0.1, 0.01 and 0.001 above x: each float lies at or above its power of ten.
    Then x 10^s = m 5^s / 2^r with 36 <= r <= 46.  Its nearest integer, the 17
    digits, is q plus the exact m 5^s - q 2^r over 2^r, rounded, for q the float
    x 10^s truncated: that difference is below 2^54, so uint64 arithmetic mod
    2^64 gets it right.  It never carries to 10^17: the float below each power of
    ten lies more than half a unit of the 17th digit under it."""
    lo, hi = np.array([1e-4, 1.0]).view(np.uint64)  # [1e-4, 1) in a float's bits
    m, lits = len(cols[0]), [pieces[0], *(p[4 if p[0] == "." else 1:] for p in pieces[1:])]
    lits[-1] += "\n"
    cols = [np.arange(c.start, c.stop, c.step) if isinstance(c, range) else c for c in cols]
    int_field = [p[0] == "d" for p in pieces[1:]]
    # a field's first group of the 5 of w: a float's group 0, an int's first one its slice needs
    firsts = [5 - (len(str(c.max())) + 3) // 4 if i else 0 for i, c in zip(int_field, cols)]
    row = "".join(t + ("\0" * 4 * (5 - j) if i else "\0\0" "0." + "\0" * 20)
                  for t, i, j in zip(lits, int_field, firsts)) + lits[-1]  # an int's has no "0."
    raw, o = bytearray(row.encode()) * m, len(lits[0])
    text = np.frombuffer(raw, np.uint8).reshape(m, len(row))
    w, f, b = np.empty((7, m), np.uint64), np.empty((2, m)), np.empty((2, m), bool)
    d = np.empty((5, m), np.uint32)
    (R, D, _, _, Q, S, T), g = w, w.view(np.int64)  # w[first:5] ends as the groups of 4 digits
    for c, ints, lit, first in zip(cols, int_field, lits[1:], firsts):
        if ints:
            np.copyto(Q, c, casting="unsafe")
        else:
            # x is in [1e-4, 1) iff its bits less lo, mod 2^64, are below hi - lo: the bits
            # order the floats from +0 up, and nan, inf and x < 0 lie above 1
            np.subtract(c.view(np.uint64), lo, out=T)
            full = np.less(T, hi - lo, out=b[0]).all()
            np.copyto(f[0], c)
            if not full:  # a value in range where x is not
                np.copyto(f[0], 0.3, where=np.logical_not(b[0], out=b[1]))
            np.copyto(S, 17)  # plus one for each of 0.1, 0.01 and 0.001 that x is below
            for p in (0.1, 0.01, 0.001):
                np.add(S, np.less(f[0], p, out=b[1]), out=S)
            np.take(_TENS, g[5], out=f[1])
            np.multiply(f[1], f[0], out=f[1])
            np.copyto(Q, f[1], casting="unsafe")  # within 13 of x 10^s
            np.right_shift(f.view(np.uint64)[0], 52, out=R)
            np.subtract(1075, R, out=R)
            np.subtract(R, S, out=R)  # x = m 2^-(r + s)
            np.bitwise_and(f.view(np.uint64)[0], 2**52 - 1, out=D)
            np.bitwise_or(D, 2**52, out=D)
            np.take(_FIVES, g[5], out=T)
            np.multiply(D, T, out=D)
            np.left_shift(Q, R, out=T)
            np.subtract(D, T, out=D)
            np.subtract(R, 1, out=T)
            np.left_shift(1, T, out=T)
            np.add(D, T, out=D)  # m 5^s - q 2^r + 2^(r-1), mod 2^64
            np.right_shift(g[1], g[0], out=g[6])
            np.add(Q, T, out=Q)  # rounded half up
            np.subtract(64, R, out=R)
            np.left_shift(D, R, out=D)
            if np.equal(D, 0, out=b[1]).any():  # a tie: rounded half down if that makes q even
                np.bitwise_and(Q, 1, out=T)
                np.subtract(Q, T, out=Q, where=b[1])
        for j in range(4, first, -1):  # w[j - 1], w[j] = divmod(w[j], 10^4)
            np.floor_divide(w[j], 10**4, out=w[j - 1])
            np.multiply(w[j - 1], 10**4, out=T)
            np.subtract(w[j], T, out=w[j])
        # T, a stripped variant's offset while the groups passed (an int's from the left) are 0
        np.copyto(T, 2 * 10**4 if ints else 10**4)
        for j in range(first, 5) if ints else range(4, 0, -1):
            np.add(w[j], T, out=w[j])
            np.copyto(T, 0, where=np.not_equal(w[j], T, out=b[1]))
            if not T.any():  # every row is past its last (an int's first) non-zero group
                break
        if ints:  # T is left 2 10^4 at the int 0 only: its group 4 goes to 3 10^4, "0"
            np.right_shift(T, 1, out=T)
            np.add(Q, T, out=Q)
        else:  # group 0 at 3 10^4 + 10 z + d, for s = 17 + z
            np.multiply(S, 10, out=S)
            np.add(R, S, out=R)
            np.add(R, 3 * 10**4 - 170, out=R)
        at, width = (o, 4 * (5 - first)) if ints else (o + 4, 20)
        np.copyto(text[:, at:at + width].view(np.uint32),
                  np.take(_GROUPS, g[first:5], out=d[first:]).T)
        if not ints and not full:  # the values outside [1e-4, 1), padded with NUL
            rows = np.flatnonzero(np.logical_not(b[0], out=b[1]))
            text[rows, o:o + 24] = np.frombuffer(("%-24.17g" * len(rows) % tuple(
                c[rows].tolist())).replace(" ", "\0").encode(), np.uint8).reshape(-1, 24)
        o = at + width + len(lit)
    del w, f, b, d, g, R, D, _, Q, S, T  # the scratch goes before the text is joined
    text[-1, -1] = 0  # the last newline
    return raw.translate(None, b"\0").decode("ascii")
