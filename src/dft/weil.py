"""Weil representation matrices, with their identities checked exactly.

rho(T) is diagonal with entries e(q(gamma)).  The S-generator is carried
in scale-balanced form: the matrix W with W[beta, gamma] =
e(-sign/8) e(-(gamma, beta)) represents the operator W / |D|^(1/2), and
every identity checked here is stated with an even total power of the
scale so that no square root is ever represented:

    W W* = |D| I
    W^2  = |D| e(-sign/4) P,   P: gamma -> -gamma
    ((W rho_T)^3)^2 = |D| W^4 = |D|^3 e(-sign/2) I
    W_D U = |H| U W_{H_perp/H}  and  rho_T(D) U = U rho_T(H_perp/H)

All entries lie in Z[zeta_M], M = lcm(8, level) or a given multiple of
it.  Each identity is a difference matrix X that must vanish, computed
in F_p for primes p = 1 (mod M), never in Z[zeta_M] itself.  Such a p
splits completely: pZ[zeta_M] is the product of the phi(M) primes
(p, zeta_M - omega), omega running over the primitive M-th roots of
unity in F_p.  So an entry x that is 0 under zeta_M -> omega for every
omega and every p of a set P has (prod P)^phi(M) dividing its norm
N(x).  With x = sum c_a zeta^a and sum |c_a| <= B, |N(x)| <= B^phi(M),
so prod P > B forces x = 0, and x is nonzero exactly when it is
nonzero at some (p, omega).  The identities are checked in the order
listed, and the braid relation is checked in its last form, which
equals the first once the S-square law has passed.  For n = |D| the
bounds B are 2n for unitarity and the S-square law, n^5 + n^3 <= 2n^5
for the braid relation, and 2|H| for W-equivariance (U has |H| ones in
every column, at most one in every row).  The primes are the largest
p < 2^20 with p = 1 (mod M), as few as make prod P > B; the products
mod p are the exact float64 ones of :func:`dft.exact._submul_mod`.

References: Scheithauer, *The Weil representation of SL_2(Z) and some
applications*, IMRN 2009; Strömberg, *Weil representations associated
with finite quadratic modules*, Math. Z. 2013.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np

from . import bounds, cyclo
from .errors import BoundExceeded, RelationFailed
from .exact import _PRIME_LIMIT, _submul_mod
from .fqm import DiscriminantForm, Subgroup, milgram_vector_vanishes
from .lifts import lift_matrix
from .ntheory import is_prime, prime_power_factors


def _conductor(form: DiscriminantForm) -> int:
    return lcm(8, form.level)


def rho_T(form: DiscriminantForm) -> np.ndarray:
    """The diagonal matrix of e(q(gamma)), as exact Cyclotomic entries."""
    M = _conductor(form)
    n = form.order
    out = np.empty((n, n), dtype=object)
    out[:] = cyclo.Cyclotomic.rational(M, 0)
    for i, a in enumerate(_t_exponents(form, M).tolist()):
        out[i, i] = cyclo.Cyclotomic.root(M, a)
    return out


def _t_exponents(form: DiscriminantForm, M: int) -> np.ndarray:
    L = form.level
    return (form.qnum_array() * (M // L)) % M


def _w_exponents(form: DiscriminantForm, M: int) -> np.ndarray:
    """Exponent matrix of W: row beta, column gamma."""
    b = form.b_row_num(np.arange(form.order)).T   # b(gamma, beta)
    return (-form.signature * (M // 8) - b * (M // form.level)) % M


@dataclass
class ScaledWeilMatrix:
    """W together with the tracked power of |D|: the operator is
    W / |D|^(scale_exp / 2).  Entries are single roots of unity, stored
    as an exponent matrix over conductor M."""

    conductor: int
    exponents: np.ndarray
    scale_exp: int
    group_order: int

    @property
    def shape(self):
        return self.exponents.shape

    def entry(self, i: int, j: int) -> cyclo.Cyclotomic:
        return cyclo.Cyclotomic.root(self.conductor, int(self.exponents[i, j]))

    def dense(self) -> np.ndarray:
        n, m = self.exponents.shape
        out = np.empty((n, m), dtype=object)
        for i in range(n):
            for j in range(m):
                out[i, j] = self.entry(i, j)
        return out

    def operator_dense(self) -> np.ndarray:
        """Exact operator matrix; needs an even scale exponent so the
        power of |D| folds into rational coefficients."""
        if self.scale_exp % 2:
            raise ValueError("odd scale exponent cannot be folded exactly")
        factor = Fraction(1, self.group_order ** (self.scale_exp // 2))
        return self.dense() * factor


def rho_S_scaled(form: DiscriminantForm) -> ScaledWeilMatrix:
    """sqrt(|D|) * rho(S): entries e(-sign/8) e(-(gamma, beta))."""
    M = _conductor(form)
    return ScaledWeilMatrix(M, _w_exponents(form, M), 1, form.order)


# ---------------------------------------------------------------------------
# split-prime engine
# ---------------------------------------------------------------------------


def _split_primes(M: int, bound: int) -> list[tuple[int, int]]:
    """The largest primes p < 2^20 with p = 1 (mod M), each with an element
    of exact order M in F_p, as few as make their product exceed bound."""
    factors = prime_power_factors(M)
    out, p = [], (_PRIME_LIMIT - 2) // M * M + 1
    while prod(q for q, _ in out) <= bound:
        if p < 2:
            raise BoundExceeded(f"too few primes = 1 (mod {M}) below 2^20")
        if is_prime(p):
            for g in range(2, p):
                w = pow(g, (p - 1) // M, p)
                if all(pow(w, M // f, p) != 1 for f in factors):
                    break
            out.append((p, w))
        p -= M
    return out


def _nonzero_mask(M: int, bound: int, residues) -> np.ndarray:
    """The entries of a matrix X over Z[zeta_M] that are nonzero, given
    that each is sum c_a zeta^a with sum |c_a| <= bound.

    ``residues(p, pw)`` returns X mod p with zeta_M sent to the root omega
    of powers ``pw[a] = omega^a``; it is called at every primitive M-th
    root of unity in F_p, for each chosen prime p."""
    primes = _split_primes(M, bound)
    if prod(p for p, _ in primes) <= bound:
        raise ArithmeticError("the primes' product does not exceed the bound")
    exps = np.arange(M)
    mask = False
    for p, w in primes:
        pw = np.array([pow(w, a, p) for a in range(M)], dtype=np.int64)
        for k in range(1, M):
            if gcd(k, M) == 1:
                mask = mask | (residues(p, pw[k * exps % M]) != 0)
    return mask


def _mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p, for residue matrices."""
    zero = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    return _submul_mod(zero, (-a) % p, b, p)


def check_relations(form: DiscriminantForm, conductor: int | None = None) -> dict:
    """Exact verification of unitarity, the S-square law, and the braid
    relation in scale-balanced form.  Raises RelationFailed with the
    offending entry on any mismatch.

    The conductor may be any positive multiple of lcm(8, level); results
    do not depend on the choice."""
    n = form.order
    if n > bounds.max_cyclo_order():
        raise BoundExceeded(f"|D| = {n} exceeds the cyclotomic budget")
    M = conductor or _conductor(form)
    if M < 1 or M % _conductor(form):
        raise ValueError("conductor must be a positive multiple of "
                         "lcm(8, level)")
    s = form.signature
    expT = _t_exponents(form, M)
    expW = _w_exponents(form, M)
    expWT = (expW + expT[None, :]) % M
    diag = n * np.eye(n, dtype=np.int64)
    neg = form.neg_index_vec(np.arange(n))

    def unitarity(p, pw):           # |D| I - W W*
        return _submul_mod(diag, pw[expW], pw[-expW.T % M], p)

    def s_square(p, pw):            # |D| e(-sign/4) P - W^2
        want = np.zeros((n, n), dtype=np.int64)
        want[np.arange(n), neg] = n * pw[-s * (M // 4) % M] % p
        return _submul_mod(want, pw[expW], pw[expW], p)

    # once the S-square law holds, W^4 = |D|^2 e(-sign/2) I exactly
    def braid(p, pw):               # |D|^3 e(-sign/2) I - ((W rho_T)^3)^2
        WT = pw[expWT]
        WT3 = _mul(_mul(WT, WT, p), WT, p)
        want = np.eye(n, dtype=np.int64) * (pow(n, 3, p)
                                            * pw[-s * (M // 2) % M] % p)
        return _submul_mod(want, WT3, WT3, p)

    for name, bound, residues in (("unitarity", 2 * n, unitarity),
                                  ("s-square", 2 * n, s_square),
                                  ("braid", 2 * n ** 5, braid)):
        _require(form, name, _nonzero_mask(M, bound, residues))

    # Gauss-sum consistency at the matrix level: the first row of
    # W rho_T^{-1} sums to e(-sign/8) conj(G), of square |D| e(-2 sign/4)
    row = np.zeros(M, dtype=np.int64)
    np.add.at(row, (expW[0] - expT) % M, 1)
    if not milgram_vector_vanishes(M, row, n, -2 * s % 8):
        raise RelationFailed("gauss-row", entry=None)
    return dict.fromkeys(("unitarity", "s-square", "braid", "gauss-row"), True)


def _require(form, name, mask):
    """Raise RelationFailed at the first entry that mask marks."""
    if mask.any():
        i, j = np.argwhere(mask)[0]
        raise RelationFailed(f"{name} failed", entry=(form.element(int(i)),
                                                      form.element(int(j))))


def check_lift_equivariance(form: DiscriminantForm, H: Subgroup) -> bool:
    """Exact identities rho_T(D) U = U rho_T(D') and W_D U = |H| U W_{D'}
    for the lift matrix U along an isotropic subgroup H."""
    n = form.order
    if n > bounds.max_cyclo_order():
        raise BoundExceeded(f"|D| = {n} exceeds the cyclotomic budget")
    lm = lift_matrix(form, H)
    quot = lm.source
    U = lm.matrix()
    M = _conductor(form)
    rows, cols = np.nonzero(U)
    if not np.array_equal(_t_exponents(form, M)[rows],
                          _t_exponents(quot, M)[cols]):
        raise RelationFailed("rho_T equivariance failed")

    expW_D = _w_exponents(form, M)
    expW_Q = _w_exponents(quot, M)

    def w_equivariance(p, pw):      # |H| U W_{D'} - W_D U
        right = H.order * _mul(U, pw[expW_Q], p) % p
        return _submul_mod(right, pw[expW_D], U, p)

    # sum |c_a| of an entry: a column of U times W_D, |H| times a row of U
    # times W_{D'}; 2|H| for a lift matrix
    A = np.abs(U)
    bound = int(A.sum(axis=0).max() + H.order * A.sum(axis=1).max())
    _require(form, "W equivariance", _nonzero_mask(M, bound, w_equivariance))
    return True
