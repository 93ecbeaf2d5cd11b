"""Small-type classification and the order-2 isotropy graph.

For odd primes the classification is by rank and shape of the level-p
part; for p = 2 the symbol is split as A + B, where A collects the
components containing anisotropic elements of order 2 (scale 2 of either
parity, odd parity at scale 4) and B the rest.  B of rank r < 3 and A in
the catalog D_{3-r} is the small-type condition; the primed catalogs
characterize the absence of an isotropic (Z/2Z)^3 and are kept separate
for the cross-check against explicit search.

The graph criterion: vertices are the elements of a 2-power-level form,
with an edge between gamma and beta when their difference is an
isotropic order-2 element orthogonal to both.  e^gamma lies in the lift
span exactly when gamma's connected component contains an odd cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bounds
from .errors import NotTwoAdic, ValidityError
from .fqm import DiscriminantForm, Element
from .lifts import (_greedy_walk, isotropic_indices, lift_span,
                    prime_order_columns)
from .ntheory import legendre, kronecker2, prime_power_factors
from .symbols import EVEN, ODD, GenusSymbol

# ---------------------------------------------------------------------------
# catalogs for p = 2
# ---------------------------------------------------------------------------


def _two_adic_split(part: GenusSymbol):
    """(scale-2 component or None, odd scale-4 component or None, B-rank)."""
    c2 = o4 = None
    b_rank = 0
    for c in part.components:
        if c.prime != 2:
            raise ValidityError("2-adic split applied to an odd-prime part")
        if c.scale_exp == 1:
            c2 = c
        elif c.scale_exp == 2 and c.parity == ODD:
            o4 = c
        else:
            b_rank += c.rank
    return c2, o4, b_rank


def _sign_e8_is_one(t: int, sign: int) -> bool:
    # sign * e(t/8) == 1 iff (sign=+1, t=0) or (sign=-1, t=4) mod 8
    return (sign == 1 and t % 8 == 0) or (sign == -1 and t % 8 == 4)


def _catalog_d1(c2, o4) -> Optional[str]:
    if c2 is None and o4 is None:
        return "D1:0"
    if o4 is None:
        if c2.parity == EVEN:
            return "D1:2_II^-2" if (c2.rank, c2.sign) == (2, -1) else None
        n, t, s = c2.rank, c2.oddity, c2.sign
        if n == 1:
            return "D1:2_t^e1"
        if n == 2 and t % 4 == 2:
            return "D1:2_t^e2,t=2mod4"
        if n == 3 and s * kronecker2(t) == -1:
            return "D1:2_t^e3,e(t|2)=-1"
        return None
    if o4.rank == 1:
        if c2 is None:
            return "D1:4_t^e1"
        if c2.parity == ODD and c2.rank == 1:
            return "D1:2_t^e1.4_s^e1"
    return None


def _catalog_d2(c2, o4, primed: bool) -> Optional[str]:
    tag = "D2'" if primed else "D2"
    if c2 is None and o4 is None:
        return f"{tag}:0"
    if o4 is None:
        if c2.parity == EVEN:
            if (c2.rank, abs(c2.sign)) == (2, 1):
                return f"{tag}:2_II^e2"
            if primed and (c2.rank, c2.sign) == (4, -1):
                return f"{tag}:2_II^-4"
            return None
        n, t, s = c2.rank, c2.oddity, c2.sign
        if n <= 3:
            return f"{tag}:2_t^en,n<=3"
        if n == 4 and not _sign_e8_is_one(t, s):
            return f"{tag}:2_t^e4,e*e(t/8)!=1"
        if primed and n == 5 and s * kronecker2(t) == -1:
            return f"{tag}:2_t^e5,e(t|2)=-1"
        return None
    if o4.rank == 1:
        if c2 is None:
            return f"{tag}:4_s^e1"
        if c2.parity == EVEN and c2.rank == 2:
            return f"{tag}:2_II^e2.4_s^e1"
        if c2.parity == ODD and c2.rank <= 3:
            return f"{tag}:2_t^en.4_s^e1,n<=3"
        return None
    if o4.rank == 2:
        if c2 is None:
            return f"{tag}:4_s^e2"
        if c2.parity == ODD and c2.rank == 1:
            return f"{tag}:2_t^e1.4_s^e2"
    return None


def _catalog_d3(c2, o4, primed: bool) -> Optional[str]:
    tag = "D3'" if primed else "D3"
    if c2 is None and o4 is None:
        return f"{tag}:0"
    if o4 is None:
        if c2.parity == EVEN:
            if c2.rank in (2, 4):
                return f"{tag}:2_II^e{c2.rank}"
            if primed and (c2.rank, c2.sign) == (6, -1):
                return f"{tag}:2_II^-6"
            return None
        n, t, s = c2.rank, c2.oddity, c2.sign
        if n <= 5:
            return f"{tag}:2_t^en,n<=5"
        if n == 6:
            if primed:
                if not _sign_e8_is_one(t, s):
                    return f"{tag}:2_t^e6,e*e(t/8)!=1"
            elif t % 4 == 2:
                return f"{tag}:2_t^e6,t=2mod4"
            return None
        if primed and n == 7 and s * kronecker2(t) == -1:
            return f"{tag}:2_t^e7,e(t|2)=-1"
        return None
    if o4.rank == 1:
        if c2 is None:
            return f"{tag}:4_s^e1"
        if c2.parity == EVEN and c2.rank in (2, 4):
            return f"{tag}:2_II^e{c2.rank}.4_s^e1"
        if c2.parity == ODD and c2.rank <= 5:
            return f"{tag}:2_t^en.4_s^e1,n<=5"
        return None
    if o4.rank == 2:
        if c2 is None:
            return f"{tag}:4_s^e2"
        if c2.parity == EVEN and c2.rank == 2:
            return f"{tag}:2_II^e2.4_s^e2"
        if c2.parity == ODD and c2.rank <= 3:
            return f"{tag}:2_t^en.4_s^e2,n<=3"
        return None
    if o4.rank == 3:
        if c2 is None:
            return f"{tag}:4_s^e3"
        if c2.parity == ODD and c2.rank == 1:
            return f"{tag}:2_t^e1.4_s^e3"
    return None


def _catalog_match(index: int, c2, o4, primed: bool) -> Optional[str]:
    if index == 1:
        return _catalog_d1(c2, o4)
    if index == 2:
        return _catalog_d2(c2, o4, primed)
    if index == 3:
        return _catalog_d3(c2, o4, primed)
    raise ValueError(f"no catalog D_{index}")


# ---------------------------------------------------------------------------
# small type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmallTypeVerdict:
    small: bool
    rule: str
    per_prime: dict

    def __bool__(self):
        return self.small


def _odd_part_rule(p: int, part: GenusSymbol) -> Optional[str]:
    rank = part.rank_of_prime(p)
    if rank <= 2:
        return f"p{p}:rank<=2"
    level_p = [c for c in part.components if c.scale_exp == 1]
    if rank == 3:
        return f"p{p}:rank3,level-p-component" if level_p else None
    eps = legendre(-1, p)
    if rank == 4:
        higher = sum(c.rank for c in part.components if c.scale_exp >= 2)
        if higher > 2:
            return None
        if higher == 2:
            ok = (len(level_p) == 1 and level_p[0].rank == 2
                  and level_p[0].sign == -eps)
            return f"p{p}:rank4,-e2+two-lines" if ok else None
        # with at most one higher generator both level-p signs decompose
        return f"p{p}:rank4,-e2+two-lines"
    if rank == 5 and part.level == p:
        return f"p{p}:rank5,level-p"
    return None


def _two_part_rule(part: GenusSymbol) -> Optional[str]:
    c2, o4, b_rank = _two_adic_split(part)
    if b_rank >= 3:
        return None
    return _catalog_match(3 - b_rank, c2, o4, primed=False)


def small_type(sym: GenusSymbol) -> SmallTypeVerdict:
    """Decide small type from the symbol, prime part by prime part."""
    per_prime = {}
    small = True
    for p in sym.primes:
        part = sym.prime_part(p)
        rule = _two_part_rule(part) if p == 2 else _odd_part_rule(p, part)
        per_prime[p] = (rule is not None, rule or f"p{p}:none")
        small = small and rule is not None
    if not sym.primes:
        return SmallTypeVerdict(True, "rank<=2", {})
    rule = ";".join(r for _, r in per_prime.values())
    return SmallTypeVerdict(small, rule, per_prime)


def no_cube_catalog_check(sym: GenusSymbol) -> bool:
    """Catalog prediction for 'contains no isotropic (Z/pZ)^3'."""
    primes = sym.primes
    if not primes:
        return True
    if len(primes) > 1:
        raise ValidityError("catalog check requires a prime-power level symbol")
    p = primes[0]
    part = sym.prime_part(p)
    if p == 2:
        c2, o4, b_rank = _two_adic_split(part)
        if b_rank >= 3:
            return False
        return _catalog_match(3 - b_rank, c2, o4, primed=True) is not None
    if _odd_part_rule(p, part) is not None:
        return True
    rank = part.rank_of_prime(p)
    eps = legendre(-1, p)
    if rank == 5:
        higher = sum(c.rank for c in part.components if c.scale_exp >= 2)
        if higher > 1:
            return False
        if higher == 0:
            return True  # any level-p rank-5 form splits off a -4 block
        level_p = [c for c in part.components if c.scale_exp == 1]
        return (len(level_p) == 1 and level_p[0].rank == 4
                and level_p[0].sign == -1)
    if rank == 6:
        comps = part.components
        return (len(comps) == 1 and comps[0].scale_exp == 1
                and comps[0].sign == -eps)
    return False


def max_isotropic_rank(p: int, n: int, eps: int) -> int:
    """Rank of a maximal isotropic subgroup of the level-p form p^{eps*n}."""
    if p == 2:
        raise ValidityError("formula applies to odd primes")
    if n % 2 == 0:
        return n // 2 if eps == legendre(-1, p) ** (n // 2) else (n - 2) // 2
    return (n - 1) // 2


# ---------------------------------------------------------------------------
# explicit search for elementary isotropic subgroups
# ---------------------------------------------------------------------------


def contains_isotropic_elementary(form: DiscriminantForm, p: int, k: int) -> bool:
    """Search for an isotropic subgroup isomorphic to (Z/pZ)^k: the walk
    ``lifts._greedy_walk`` over the isotropic elements of order p reaches
    each isotropic (Z/pZ)^j once, and stops at the first of rank k."""
    bounds.check_span_order(form.order)
    if k == 0:
        return True
    x = isotropic_indices(form, p)
    if len(x) < p ** k - 1:
        return False
    return any(len(gens) == k for gens, _ in _greedy_walk(form, x, k))


# ---------------------------------------------------------------------------
# the isotropy graph (p = 2)
# ---------------------------------------------------------------------------


class IsotropyGraph:
    """Vertices are the form's elements; edges join gamma to gamma + mu for
    isotropic order-2 mu orthogonal to gamma.

    A view of the form's lift span.  At 2-power level every prime-order
    line is {0, mu}, whose lift columns are the pairs {gamma, gamma + mu},
    gamma in mu_perp: the edges, once each.  ``edges`` views those columns
    (``lifts.prime_order_columns``) as the rows (gamma, gamma + mu),
    gamma < gamma + mu.  The relation is symmetric:
    b(mu, gamma + mu) = b(mu, gamma) + 2 q(mu) = b(mu, gamma).

    Components, bipartiteness and colours are ``SpanResult.labels``, the
    labelling that answered the span (``exact.bipartite_components``); a
    span without one raises ``ArithmeticError``.  Components are numbered
    in the order of their least vertices, and gamma's colour is 1 exactly
    when every walk from the least vertex of its component to gamma is
    odd, 0 on the components that are not bipartite.

    ``neighbors`` is built from ``edges`` on first use, and so is the
    breadth-first search of one component's cover in ``odd_walk_through``.
    """

    def __init__(self, form: DiscriminantForm):
        if any(p != 2 for p in prime_power_factors(form.level)):
            raise NotTwoAdic(f"level {form.level} is not a power of 2")
        bounds.check_span_order(form.order)
        labels = lift_span(form).labels
        if labels is None:
            raise ArithmeticError("the lift span has no labelling of its "
                                  "pair columns")
        self.form = form
        self.edges = prime_order_columns(form).indices.reshape(-1, 2)
        self.component, bipartite, self.color = labels
        self.bipartite: list[bool] = bipartite.tolist()
        self.n_components = len(bipartite)
        self._adjacency = self._neighbors = None

    @property
    def neighbors(self) -> list[list[int]]:
        """The neighbours of every vertex, ascending."""
        if self._neighbors is None:
            indptr, nbrs = self._csr()
            flat, ends = nbrs.tolist(), indptr.tolist()
            self._neighbors = [flat[i:j] for i, j in zip(ends, ends[1:])]
        return self._neighbors

    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, nbrs): vertex v's neighbours, ascending, are
        nbrs[indptr[v]:indptr[v + 1]]."""
        if self._adjacency is None:
            n = self.form.order
            a, b = self.edges.T
            key = np.sort(np.concatenate([a * n + b, b * n + a]))
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(key // n, minlength=n), out=indptr[1:])
            self._adjacency = indptr, key % n
        return self._adjacency

    @property
    def nonbipartite(self) -> np.ndarray:
        """Per element: does its component hold an odd closed walk?  This
        is the graph's verdict on membership of e^gamma in the lift span."""
        return ~np.asarray(self.bipartite)[self.component]

    def component_of(self, gamma: Element) -> int:
        return int(self.component[self.form.index(gamma)])

    def is_nonbipartite_at(self, gamma: Element) -> bool:
        return not self.bipartite[self.component_of(gamma)]

    def odd_walk_through(self, gamma: Element) -> Optional[list[Element]]:
        """A closed walk of odd length through gamma, or None if bipartite:
        the projection of a shortest path from (gamma, 0) to (gamma, 1) in
        the double cover, found by a breadth-first search of gamma's
        component."""
        if not self.is_nonbipartite_at(gamma):
            return None
        indptr, nbrs = self._csr()
        start = self.form.index(gamma)
        src, dst = 2 * start, 2 * start + 1
        parent = np.full(2 * self.form.order, -1, dtype=np.int64)
        parent[src] = src
        frontier = np.array([src])
        while parent[dst] < 0:
            lo = indptr[frontier // 2]
            deg = indptr[frontier // 2 + 1] - lo
            tail = np.repeat(frontier, deg)
            at = np.arange(len(tail)) + np.repeat(lo - np.cumsum(deg) + deg,
                                                  deg)
            head = 2 * nbrs[at] + 1 - tail % 2
            fresh = parent[head] < 0
            head, tail = head[fresh], tail[fresh]
            parent[head] = tail
            # a head reached twice keeps one of its tails
            frontier = head[parent[head] == tail]
        walk = [dst]
        while walk[-1] != src:
            walk.append(int(parent[walk[-1]]))
        # the path ends at (gamma, 1); the closing step returns to gamma
        return [self.form.element(v // 2) for v in walk[:0:-1]]


def build_isotropy_graph(form: DiscriminantForm) -> IsotropyGraph:
    return IsotropyGraph(form)


def gamma_in_image_by_graph(form: DiscriminantForm, gamma: Element) -> bool:
    """Graph-side membership: gamma's component is not bipartite."""
    return build_graph_cached(form).is_nonbipartite_at(gamma)


def build_graph_cached(form: DiscriminantForm) -> IsotropyGraph:
    """The isotropy graph: its edges and labelling are kept on the form
    with the lift span, so a second call builds neither again."""
    return IsotropyGraph(form)


def graph_to_dot(graph: IsotropyGraph) -> str:
    """DOT rendering: labels carry the coefficient vector and q-value,
    components are annotated, bipartite components are two-colored."""
    form = graph.form
    lines = ["graph isotropy {", "  node [style=filled];"]
    palette = ("lightblue", "khaki")
    for i, e in enumerate(form.elements):
        cid = int(graph.component[i])
        if graph.bipartite[cid]:
            fill = palette[int(graph.color[i])]
        else:
            fill = "salmon"
        label = f"{e} q={form.q(e)}"
        lines.append(f'  v{i} [label="{label}", comp={cid}, fillcolor={fill}];')
    for i, ns in enumerate(graph.neighbors):
        for j in ns:
            if i < j:
                lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines)
