"""The Schlafli terms at 50 digits: the oracle of the accuracy gate.

mp_term_series evaluates every term the sample pipeline evaluates, from
the same float generators, with mpmath at 50 significant digits: the
generators' stored entries are read exactly and normalized to
determinant 1 there, and everything after that (word images, fixed
points, endpoint tracking, plaques, cross-ratios, frames, horoball
witnesses, logarithms and arguments) follows the formulas of
moebius.py and pleated.py without rounding to float64.  Its values are
exact to far below a float's last place, so the error of a float
kernel against it is that kernel's own error (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 1).

mp_complex_length evaluates complex_length of a map.

mp_commutator_trace evaluates a slot commutator's tr^2 by the product
A B A^-1 B^-1 from two float word images, and mp_commutator_condition
says how far rounding those images can move it.

term_errors splits the error of a series of terms by kind: leaf angle,
truncated length, cuff angle and cuff length.  The gate in test_kernel
holds the array kernel to twice the scalar kernel's error per kind,
plus two units in the last place of the largest term of that kind.
"""

import math

from mpmath import mp

from pleatbend.topology import _tokens, invert_word

DPS = 50
TERM_KINDS = ("leaf angle", "truncated length", "cuff angle", "cuff length")


def kind_of(key, what: int) -> str:
    """The kind of the angle (what 0) or length (what 1) of a leaf key."""
    return TERM_KINDS[2 * isinstance(key, str) + what]


def _matrix(m) -> tuple:
    """A MoebiusMap's stored entries, exactly, rescaled to determinant 1."""
    return _unit((m.a, m.b, m.c, m.d))


def _unit(entries) -> tuple:
    """Entries (a, b, c, d), complex or mpc, read exactly and rescaled to
    determinant 1."""
    a, b, c, d = (mp.mpc(z.real, z.imag) for z in entries)
    s = mp.sqrt(a * d - b * c)
    return a / s, b / s, c / s, d / s


def _mul(x: tuple, y: tuple) -> tuple:
    a, b, c, d = x
    e, f, g, h = y
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _inverse(x: tuple) -> tuple:
    a, b, c, d = x
    return d, -b, -c, a


def _point(z1, z2) -> tuple:
    n = mp.sqrt(abs(z1) ** 2 + abs(z2) ** 2)
    return z1 / n, z2 / n


def _apply(m: tuple, p: tuple) -> tuple:
    a, b, c, d = m
    return _point(a * p[0] + b * p[1], c * p[0] + d * p[1])


def _apply_interior(m: tuple, z, t) -> tuple:
    a, b, c, d = m
    w = c * z + d
    denom = abs(w) ** 2 + abs(c) ** 2 * t * t
    return ((a * z + b) * mp.conj(w) + a * mp.conj(c) * t * t) / denom, \
        t / denom


def _bracket(p: tuple, q: tuple):
    return p[0] * q[1] - p[1] * q[0]


def _chordal(p: tuple, q: tuple):
    return 2 * abs(_bracket(p, q))


def _normalizing(to_zero: tuple, to_infinity: tuple) -> tuple:
    a, b = to_zero[1], -to_zero[0]
    c, d = to_infinity[1], -to_infinity[0]
    s = mp.sqrt(a * d - b * c)
    return a / s, b / s, c / s, d / s


def _reduce(x):
    """x reduced modulo 2 pi into (-pi, pi]."""
    y = x - 2 * mp.pi * mp.nint(x / (2 * mp.pi))
    return y + 2 * mp.pi if y <= -mp.pi else y


def _fixed_points(m: tuple) -> tuple:
    """The attracting and the repelling fixed point of a loxodromic map,
    each from the larger of its two eigenvector candidates."""
    a, b, c, d = m
    tr = a + d
    disc = mp.sqrt(tr * tr - 4)
    mus = sorted(((tr + disc) / 2, (tr - disc) / 2), key=abs, reverse=True)
    out = []
    for mu in mus:
        v1, v2 = (b, mu - a), (mu - d, c)
        n1 = abs(v1[0]) ** 2 + abs(v1[1]) ** 2
        n2 = abs(v2[0]) ** 2 + abs(v2[1]) ** 2
        out.append(_point(*(v1 if n1 >= n2 else v2)))
    return tuple(out)


def _complex_length(m: tuple, elliptic: bool = False):
    """lambda = 2 acosh(tr / 2) of m, (a, b, c, d), Im lambda reduced
    into (-pi, pi]; for an elliptic map taken at the real part of
    tr / 2, its real part 0, as complex_length takes it."""
    tr = m[0] + m[3]
    lam = 2 * mp.acosh((mp.re(tr) if elliptic else tr) / 2)
    return mp.mpc(0 if elliptic else mp.re(lam), _reduce(mp.im(lam)))


def mp_complex_length(entries, elliptic: bool = False):
    """complex_length at 50 digits of the stored lift (a, b, c, d), read
    exactly: from a + d, as complex_length reads it, not rescaled to
    determinant 1.  elliptic says whether the float kernel classifies
    the map elliptic, a decision at the tolerance EPS_CLASS that the
    oracle takes from it."""
    with mp.workdps(DPS):
        return _complex_length([mp.mpc(z.real, z.imag) for z in entries],
                               elliptic)


class _Sample:
    """One sample's word images and terms at the chains' endpoints;
    zeta[chain][cuff index] is the (chosen, other) pair of a cuff."""

    def __init__(self, rep, pd, conv, zeta):
        self.pd = pd
        self.conv = conv
        self.zeta = zeta
        self.letters = {g: _matrix(m) for g, m in rep.image_of.items()}
        self.words = {"": (mp.mpc(1), mp.mpc(0), mp.mpc(0), mp.mpc(1))}
        self.index = {c.id: j for j, c in enumerate(pd.cuffs)}
        self.memo = {}

    def word(self, w: str) -> tuple:
        if w not in self.words:
            m = self.words[""]
            for base, inverse in _tokens(w):
                x = self.letters[base]
                m = _mul(m, _inverse(x) if inverse else x)
            self.words[w] = m
        return self.words[w]

    def _cached(self, key, make):
        if key not in self.memo:
            self.memo[key] = make()
        return self.memo[key]

    def vertex(self, p: int, slot: int, chain: int) -> tuple:
        """xi of slot of pants p, its cuff's endpoints from chain."""
        def make():
            end = self.pd.pants[p].cuff_ends[slot]
            base = self.zeta[chain][self.index[end.cuff]][0]
            return _apply(self.word(end.conjugator), base) \
                if end.conjugator else base
        return self._cached(("vertex", p, slot, chain), make)

    def witness(self, p: int, slot: int, chain: int) -> tuple:
        """The horoball witness of a leaf end, carried by its slot's
        conjugator."""
        def make():
            end = self.pd.pants[p].cuff_ends[slot]
            chosen, other = self.zeta[chain][self.index[end.cuff]]
            frame = _normalizing(other, chosen)
            wit = _apply_interior(_inverse(frame), mp.mpc(0),
                                  mp.mpf(self.conv.scales[end.cuff]))
            return _apply_interior(self.word(end.conjugator), *wit) \
                if end.conjugator else wit
        return self._cached(("witness", p, slot, chain), make)

    def chain_of(self, pattern: dict, p: int, slot: int) -> int:
        return pattern[self.index[self.pd.pants[p].cuff_ends[slot].cuff]]

    def leaf_angle(self, p: int, i: int, pattern: dict):
        xi = [self.vertex(p, s, self.chain_of(pattern, p, s))
              for s in range(3)]
        e1, e2, up = xi[i], xi[(i + 1) % 3], xi[(i + 2) % 3]
        down = _apply(self.word(self.pd.slot_words[p][(i + 1) % 3]), up)
        cr = (_bracket(down, e1) * _bracket(up, e2)) \
            / (_bracket(down, e2) * _bracket(up, e1))
        return _reduce(mp.pi - mp.arg(cr))

    def truncated_length(self, p: int, i: int, pattern: dict):
        j = (i + 1) % 3
        ci, cj = (self.chain_of(pattern, p, s) for s in (i, j))

        def make():
            frame = _normalizing(self.vertex(p, i, ci), self.vertex(p, j, cj))
            za, ta = _apply_interior(frame, *self.witness(p, i, ci))
            _, tb = _apply_interior(frame, *self.witness(p, j, cj))
            return mp.log(tb) - mp.log((abs(za) ** 2 + ta * ta) / ta)
        return self._cached(("length", p, i, ci, cj), make)

    def cuff_angle(self, cuff_id: str, pattern: dict, winding: int = 0):
        """The bending angle across the cuff, read through the crossing
        word that turns winding times around it: the positive end's
        conjugator, the cuff word winding times (its inverse -winding
        times), and the inverse of the negative end's conjugator."""
        pd = self.pd
        (pp, kp), (pm, km) = pd.signed_ends_of(cuff_id)
        chosen, other = self.zeta[pattern[self.index[cuff_id]]][
            self.index[cuff_id]]
        v_plus = pd.pants[pp].cuff_ends[kp].conjugator
        if v_plus:
            lift = self.word(v_plus)
            chosen, other = _apply(lift, chosen), _apply(lift, other)
        frame = _normalizing(other, chosen)
        loop = pd.cuff(cuff_id).word
        turns = (loop * winding if winding >= 0
                 else invert_word(loop) * -winding)
        v_minus = pd.pants[pm].cuff_ends[km].conjugator
        crossing = self.word(v_plus + turns + invert_word(v_minus))

        def coord(pt):
            z1, z2 = _apply(frame, pt)
            return z1 / z2

        a1, a2 = (coord(self.vertex(pp, s, self.chain_of(pattern, pp, s)))
                  for s in ((kp + 1) % 3, (kp + 2) % 3))
        b1, b2 = (coord(_apply(crossing, self.vertex(
            pm, s, self.chain_of(pattern, pm, s))))
            for s in ((km + 1) % 3, (km + 2) % 3))
        return _reduce(mp.arg((b1 - b2) / (a1 - a2)))

    def cuff_length(self, cuff_id: str):
        return mp.re(_complex_length(self.word(self.pd.cuff(cuff_id).word)))


def mp_cuff_angles(rep, pd, zeta: dict, windings) -> tuple:
    """The cuff terms of one realization of rep at 50 digits, its chosen
    endpoints zeta, cuff id -> (chosen, other) ProjectivePoints:
    ({(cuff id, winding): cuff_angle} for every cuff and winding in
    windings, {cuff id: Im lambda}), lambda = 2 acosh(tr / 2) reduced
    as complex_length reduces a loxodromic cuff's.  Each cuff's exact
    fixed points are taken in the order of the float ones they lie
    nearer to, so an elliptic cuff and a tracked start read the
    realization's endpoint."""
    with mp.workdps(DPS):
        sample = _Sample(rep, pd, None, None)
        row, rotations = [], {}
        for c in pd.cuffs:
            m = sample.word(c.word)
            pts = _fixed_points(m)
            chosen = zeta[c.id][0]
            near = _point(mp.mpc(chosen.z1), mp.mpc(chosen.z2))
            row.append(pts if _chordal(near, pts[0]) <= _chordal(near, pts[1])
                       else pts[::-1])
            rotations[c.id] = mp.im(_complex_length(m))
        sample.zeta = [row]
        pattern = dict.fromkeys(sample.index.values(), 0)
        return ({(c.id, k): sample.cuff_angle(c.id, pattern, k)
                 for c in pd.cuffs for k in windings}, rotations)


def _commutator_trace(x, y):
    a, b = _unit(x), _unit(y)
    m = _mul(_mul(_mul(a, b), _inverse(a)), _inverse(b))
    return (m[0] + m[3]) ** 2


def mp_commutator_trace(x, y):
    """tr^2 of the commutator A B A^-1 B^-1 at 50 digits, A and B the
    maps of the float entries x and y, (a, b, c, d) each, read
    exactly."""
    with mp.workdps(DPS):
        return _commutator_trace(x, y)


def mp_commutator_condition(x, y):
    """The condition of mp_commutator_trace(x, y): the sum, over the real
    and the imaginary part of each of the eight entries e, of |e| times
    the modulus of the derivative of tr^2 in that part.  Moving every
    entry by at most eps |e| moves tr^2 by at most about eps times it."""
    with mp.workdps(DPS):
        entries = [mp.mpc(z.real, z.imag) for z in (*x, *y)]
        value = _commutator_trace(entries[:4], entries[4:])
        h = mp.mpf(10) ** -25
        condition = mp.mpf(0)
        for i, e in enumerate(entries):
            for unit in (1, 1j):
                moved = list(entries)
                moved[i] = e + h * unit * abs(e)
                condition += abs(_commutator_trace(moved[:4], moved[4:])
                                 - value) / h
        return condition


def angle_error(got: float, want) -> float:
    """|got - want| for an angle, modulo 2 pi."""
    with mp.workdps(DPS):
        return float(abs(_reduce(mp.mpf(got) - want)))


def mp_term_series(pd, lam, reps, labels, conv, keys) -> dict:
    """{(leaf key, pattern): (angles, lengths)} at 50 digits, each a list
    over the samples of reps, for the (leaf key, pattern) rows in keys.

    Chain c starts at the first sample from labels[c] ("attracting" or
    "repelling" on every cuff) and is tracked to the nearer fixed point
    from sample to sample, as the pipeline tracks it; only the chains
    that keys' patterns read are tracked.  Every cuff must stay
    loxodromic.
    """
    leaves = {leaf.key: leaf for leaf in lam.leaves}
    chains = 1 + max((max(pattern, default=0) for _, pattern in keys),
                     default=0)
    out = {key: ([], []) for key in keys}
    with mp.workdps(DPS):
        zeta = None
        for rep in reps:
            sample = _Sample(rep, pd, conv, None)
            points = [_fixed_points(sample.word(c.word)) for c in pd.cuffs]
            if zeta is None:
                zeta = [[pts if labels[c] == "attracting" else pts[::-1]
                         for pts in points] for c in range(chains)]
            else:
                zeta = [[pts if _chordal(prev[0], pts[0])
                         <= _chordal(prev[0], pts[1]) else pts[::-1]
                         for prev, pts in zip(row, points)] for row in zeta]
            sample.zeta = zeta
            for (key, pattern), (angles, lengths) in out.items():
                chain = dict(zip(leaves[key].support, pattern))
                if isinstance(key, str):
                    angles.append(sample.cuff_angle(key, chain))
                    lengths.append(sample.cuff_length(key))
                else:
                    angles.append(sample.leaf_angle(*key, chain))
                    lengths.append(sample.truncated_length(*key, chain))
    return out


def term_errors(series: dict, oracle: dict) -> dict:
    """Per kind, (worst |error| against oracle, largest |term|) over
    every row and sample of series, {(leaf key, pattern): (angles,
    lengths)}; angles are compared modulo 2 pi."""
    worst = dict.fromkeys(TERM_KINDS, 0.0)
    largest = dict.fromkeys(TERM_KINDS, 0.0)
    with mp.workdps(DPS):
        for (key, pattern), rows in series.items():
            for what, (got, want) in enumerate(zip(rows,
                                                   oracle[key, pattern])):
                kind = kind_of(key, what)
                for g, w in zip(got, want):
                    err = mp.mpf(float(g)) - w
                    if what == 0:
                        err = _reduce(err)
                    worst[kind] = max(worst[kind], float(abs(err)))
                    largest[kind] = max(largest[kind], float(abs(w)))
    return {kind: (worst[kind], largest[kind]) for kind in TERM_KINDS}


def gate_bound(seed_error: float, largest: float) -> float:
    """The accuracy gate for one kind: twice the scalar kernel's worst
    error plus two units in the last place of the largest term."""
    return 2 * seed_error + 2 * math.ulp(largest)
