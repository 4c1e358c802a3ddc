"""Exact axis winding of rational symbols: the test oracle for the
certified winding of `specflow.charmatrix.is_hyperbolic`.

When the kernel is a sum of one-sided exponential-polynomial terms and
every shift sits at xi = 0, the characteristic function is rational:
K_hat(nu) is a sum of C p!/(b +- nu)^(p+1), so with the common
denominator Q(nu) = prod (b +- nu)^m the determinant P = det(Q Delta) is
a polynomial.  On the imaginary axis P(i ell) = R(ell) + i I(ell), and
the Cauchy index of I/R, read off a Sturm chain, gives N_- - N_+, the
number of roots of P left of the axis minus those right of it
(Gantmacher, Theory of Matrices II, ch. XV).  The winding number of
det Delta(i ell) / (i ell + 1)^n over the real line is then

    W = [(N_- - N_+)(P) - n (N_- - N_+)(Q) - n] / 2,

and the Fredholm index of a pair of hyperbolic limits is
W(s_plus) - W(s_minus).  Every float coefficient converts exactly to a
Fraction, so nothing is rounded: W is the winding of the symbol the
floats define.  P has a root on the axis exactly when gcd(R, I) has a
real root, which a second Sturm chain decides.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm

from specflow.kernels import ExpPolyKernel, SumKernel

__all__ = ["axis_winding", "root_balance"]


# -- real polynomials: lists of Fractions, lowest power first, no trailing 0 --

def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _add(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for k, c in enumerate(q):
        out[k] += c
    return _trim(out)


def _scale(p, c):
    return [c * a for a in p] if c else []


def _mul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _times_ell(p):
    return [Fraction(0)] + p if p else []


def _rem(p, q):
    p = list(p)
    while len(p) >= len(q):
        f = p[-1] / q[-1]
        shift = len(p) - len(q)
        for k, c in enumerate(q[:-1]):
            p[shift + k] -= f * c
        p.pop()
        _trim(p)
    return p


def _primitive(p):
    """p times a positive rational, as coprime integers; signs are kept."""
    den = lcm(*(c.denominator for c in p))
    nums = [c.numerator * (den // c.denominator) for c in p]
    g = gcd(*nums)
    return [Fraction(v // g) for v in nums]


# -- complex polynomials: pairs (real part, imaginary part) -------------------

def _cadd(a, b):
    return _add(a[0], b[0]), _add(a[1], b[1])


def _cmul(a, b):
    (ar, ai), (br, bi) = a, b
    return (_add(_mul(ar, br), _scale(_mul(ai, bi), -1)),
            _add(_mul(ar, bi), _mul(ai, br)))


def _cscale(p, z):
    """Complex polynomial p times the exact complex scalar z = (re, im)."""
    (pr, pi), (zr, zi) = p, z
    return (_add(_scale(pr, zr), _scale(pi, -zi)),
            _add(_scale(pi, zr), _scale(pr, zi)))


def _det(M):
    """Determinant of a square matrix of complex polynomials (cofactors)."""
    if len(M) == 1:
        return M[0][0]
    out = ([], [])
    for k, entry in enumerate(M[0]):
        minor = [row[:k] + row[k + 1:] for row in M[1:]]
        term = _cmul(entry, _det(minor))
        out = _cadd(out, term if k % 2 == 0 else _cscale(term, (-1, 0)))
    return out


# -- Sturm chains ---------------------------------------------------------------

def _sturm_chain(f0, f1):
    """f0, f1, -rem(f0, f1), ... up to the last nonzero, each made primitive."""
    chain = [_primitive(f0)]
    while f1:
        chain.append(_primitive(f1))
        f1 = _scale(_rem(chain[-2], chain[-1]), -1)
    return chain


def _sign_changes(chain, at_plus):
    """Sign changes of the chain at +infinity (at_plus) or -infinity."""
    signs = [(1 if p[-1] > 0 else -1) * (1 if at_plus or len(p) % 2 else -1)
             for p in chain]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _has_real_root(g):
    if len(g) < 2:
        return False
    chain = _sturm_chain(g, [k * c for k, c in enumerate(g)][1:])
    return _sign_changes(chain, False) > _sign_changes(chain, True)


def _axis_balance(F):
    """N_- - N_+ of P from F(ell) = P(i ell); None for P = 0 or an axis root."""
    R, I = F
    d = max(len(R), len(I)) - 1
    if d < 0:
        return None
    cr = R[d] if len(R) > d else 0
    ci = I[d] if len(I) > d else 0
    # times conj(leading coefficient): the leading one becomes real and
    # positive, so deg I < deg R and I/R -> 0 at both ends of the line;
    # then N_- - N_+ = -Ind(I/R) = V(+inf) - V(-inf)
    R, I = _add(_scale(R, cr), _scale(I, ci)), _add(_scale(I, cr), _scale(R, -ci))
    chain = _sturm_chain(R, I)
    if _has_real_root(chain[-1]):
        return None
    return _sign_changes(chain, True) - _sign_changes(chain, False)


def _exact(z):
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def root_balance(coeffs):
    """N_- - N_+ of the polynomial sum_k coeffs[k] nu^k, exactly.

    Coefficients are real or complex numbers, lowest power first, taken
    exactly as given.  Returns None when the polynomial is zero or has a
    root on the imaginary axis.
    """
    R, I = [], []
    for k, c in enumerate(coeffs):
        re, im = _exact(c)
        # i^k (re + i im)
        re, im = ((re, im), (-im, re), (-re, -im), (im, -re))[k % 4]
        R.append(re)
        I.append(im)
    return _axis_balance((_trim(R), _trim(I)))


# -- rational symbols ---------------------------------------------------------

def _rational_data(symbol):
    """(terms, A) with exact entries, or None when the symbol is not rational.

    terms are (side, rate, power, C) with C = weight * p! * C_term exactly;
    A is the shift matrix at xi = 0.
    """
    if any(s.xi != 0.0 for s in symbol.shifts):
        return None
    kernel = symbol.kernel
    if kernel is None:
        parts = []
    elif isinstance(kernel, SumKernel):
        parts = kernel.terms
    else:
        parts = [(1.0, kernel)]
    if not all(isinstance(p, ExpPolyKernel) for _, p in parts):
        return None
    n = symbol.n
    # shift offsets are distinct, so there is at most one shift, at 0
    if symbol.shifts:
        A = [[_exact(a) for a in row] for row in symbol.shifts[0].A]
    else:
        A = [[(Fraction(0), Fraction(0))] * n for _ in range(n)]
    terms = []
    for w, part in parts:
        wr, wi = _exact(w)
        for side, b, p, C in part.terms:
            f = factorial(p)
            Cx = [[(f * (wr * cr - wi * ci), f * (wr * ci + wi * cr))
                   for cr, ci in map(_exact, row)] for row in C]
            terms.append((side, Fraction(b), p, Cx))
    return terms, A


def axis_winding(symbol):
    """Winding number of det Delta(i ell) / (i ell + 1)^n over ell in R.

    Exact for symbols whose kernel is an ExpPolyKernel or a SumKernel of
    them and whose shifts all sit at xi = 0.  Returns None for any other
    symbol, for non-finite coefficients, and when det Delta has a root on
    the imaginary axis.
    """
    try:
        data = _rational_data(symbol)
    except (OverflowError, ValueError):   # inf or nan coefficients
        return None
    if data is None:
        return None
    terms, A = data
    n = symbol.n
    mult = {}
    for side, b, p, _ in terms:
        mult[side, b] = max(mult.get((side, b), 0), p + 1)

    def power(side, b, m):
        # (b + side nu)^m at nu = i ell
        out = ([Fraction(1)], [])
        for _ in range(m):
            out = _cmul(out, ([b], [Fraction(0), Fraction(side)]))
        return out

    Q = ([Fraction(1)], [])
    for (side, b), m in mult.items():
        Q = _cmul(Q, power(side, b, m))
    cofactor = {}
    for side, b, p, _ in terms:
        if (side, b, p) not in cofactor:
            c = power(side, b, mult[side, b] - p - 1)
            for (s2, b2), m2 in mult.items():
                if (s2, b2) != (side, b):
                    c = _cmul(c, power(s2, b2, m2))
            cofactor[side, b, p] = c
    # Q * i ell, the identity part of Q Delta
    Q_nu = (_scale(_times_ell(Q[1]), -1), _times_ell(Q[0]))

    M = []
    for j in range(n):
        row = []
        for k in range(n):
            zr, zi = A[j][k]
            entry = _cscale(Q, (-zr, -zi))
            if j == k:
                entry = _cadd(entry, Q_nu)
            for side, b, p, C in terms:
                cr, ci = C[j][k]
                entry = _cadd(entry, _cscale(cofactor[side, b, p], (-cr, -ci)))
            row.append(entry)
        M.append(row)
    balance = _axis_balance(_det(M))
    if balance is None:
        return None
    q_balance = sum(side * m for (side, _), m in mult.items())
    twice = balance - n * q_balance - n
    assert twice % 2 == 0, "root balance parity broken"
    return twice // 2
