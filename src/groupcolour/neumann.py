"""Constructive quadruple-avoiding covers for groups with large commuting
probability.

Pipeline: collect the elements with small conjugacy classes (X), find the
last stage s at which iterated products of X still grow linearly, locate a
subgroup H inside X^{s+1} with |H| > NU*|X| (guaranteed to exist; we certify
it by enumeration rather than relying on the existential theorem), take the
normal core K of H, and cover G by the nontrivial cosets of K plus
rank-slices of K.  Two elements of K in the same slice that are conjugate
must be equal, which is what makes the cover avoid non-commuting
monochromatic quadruples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import groups
from .colouring import Cover, cover_avoids
from .errors import ConsistencyError, ValidationError
from .groups import ElementSet, GroupTable, conjugacy
from .stats import commuting_probability


# The nu of Neumann's theorem: H is a subgroup with |H| > NU |X|.
NU = Fraction(1, 2)


def default_eta(epsilon: Fraction) -> Fraction:
    """eta = epsilon / log(1/epsilon), clamped to at most epsilon/2.

    The log makes this irrational; we rationalise it (the construction only
    needs *some* exact rational eta below epsilon).
    """
    half = epsilon / 2
    if epsilon >= 1:
        return half
    raw = float(epsilon) / math.log(1.0 / float(epsilon))
    approx = Fraction(raw).limit_denominator(10 ** 9)
    return min(approx, half)


@dataclass(frozen=True)
class NeumannArtifacts:
    """Full audit of a cover construction run."""

    epsilon: Fraction
    eta: Fraction
    X: ElementSet
    kappa: Fraction
    s: int
    H: ElementSet
    K: ElementSet
    R: int
    class_labels: tuple[int, ...]
    cover: Cover
    size_bound: int


def small_class_set(g: GroupTable, eta: Fraction, conj=None) -> ElementSet:
    """X = {x : |x^G| <= 1/eta}; always contains the identity."""
    if not 0 < eta <= 1:
        raise ValidationError("eta must be in (0, 1]")
    if conj is None:
        conj = conjugacy(g)
    bound = int(1 / eta)  # class sizes are integers, so <= 1/eta iff <= floor
    bits = 0
    for x in range(g.order):
        if conj.class_sizes[conj.class_id[x]] <= bound:
            bits |= 1 << x
    return ElementSet(g.order, bits)


def growth_index(g: GroupTable, x: ElementSet) -> int:
    """Maximal s with |X^s| >= (1 + (1-NU)(s-1)) |X|.

    s = 1 always works; the linear lower bound caps s at
    (kappa^-1 - NU)/(1 - NU) because |X^s| <= |G|.
    """
    if g.identity not in x:
        raise ValidationError("X must contain the identity")
    base = len(x)
    kappa = Fraction(base, g.order)
    cap = int((1 / kappa - NU) / (1 - NU))
    best = 1
    power = x
    stable = False
    size = base
    for s in range(2, cap + 1):
        if not stable:
            nxt = groups.product_set(g, power, x)
            if nxt.bits == power.bits:
                stable = True
            power = nxt
            size = len(power)
        if Fraction(size) >= (1 + (1 - NU) * (s - 1)) * base:
            best = s
    return best


def find_subgroup_in_product(g: GroupTable, x: ElementSet, s: int) -> ElementSet:
    """Largest subgroup H inside X^{s+1} with |H| > NU|X| (ties: least bits).

    Existence is guaranteed; an empty candidate set means a bug, so fail
    loudly with diagnostics.  When X^{s+1} is all of G we can return G
    directly without enumerating the subgroup lattice; otherwise the
    lattice is enumerated, which `all_subgroups` allows up to order
    DEFAULT_SUBGROUP_BOUND.
    """
    product = groups.iterated_product(g, x, s + 1)
    threshold = NU * len(x)
    if product.bits == (1 << g.order) - 1:
        return g.full_set()
    candidates = [
        h for h in groups.all_subgroups(g)
        if h.issubset(product) and Fraction(len(h)) > threshold
    ]
    if not candidates:
        raise ConsistencyError(
            "no subgroup H in X^(s+1) with |H| > NU|X| -- implementation bug; "
            f"X={sorted(x.members())} s={s} |X^(s+1)|={len(product)} "
            f"X^(s+1)={sorted(product.members())}"
        )
    return max(candidates, key=lambda h: (len(h), -h.bits))


def _floor_rational_power(base: Fraction, exp: Fraction) -> int:
    """floor(base ** exp) for base >= 1, exp >= 0, computed exactly."""
    if base < 1 or exp < 0:
        raise ValueError("requires base >= 1 and exp >= 0")
    p, q = exp.numerator, exp.denominator
    target = base ** p
    whole = target.numerator // target.denominator
    # Integer q-th root of the integer part by Newton, then exact repair
    # against the full rational target.
    if whole == 0:
        r = 0
    elif q == 1:
        r = whole
    else:
        r = 1 << (whole.bit_length() // q + 1)
        while True:
            nxt = ((q - 1) * r + whole // r ** (q - 1)) // q
            if nxt >= r:
                break
            r = nxt
    while Fraction((r + 1) ** q) <= target:
        r += 1
    while r > 0 and Fraction(r ** q) > target:
        r -= 1
    return r


def class_size_cap(eta: Fraction, kappa: Fraction) -> int:
    """R = floor((1/eta) ** ((1/kappa + 1 - 2 NU) / (1 - NU)))."""
    exponent = (1 / kappa + 1 - 2 * NU) / (1 - NU)
    return _floor_rational_power(1 / eta, exponent)


def build_cover(g: GroupTable) -> NeumannArtifacts:
    """Run the full pipeline and return the audited artifacts.

    The construction is instantiated once: epsilon is the exact commuting
    probability c(G) (the strongest valid choice), eta = default_eta(epsilon)
    and nu = NU.  Every intermediate guarantee is re-verified; violations
    raise ConsistencyError.  A group whose X^{s+1} is not all of G and whose
    order is above DEFAULT_SUBGROUP_BOUND raises SizeLimitError (see
    `find_subgroup_in_product`).
    """
    epsilon = commuting_probability(g).c
    eta = default_eta(epsilon)

    n = g.order
    conj = conjugacy(g)
    x = small_class_set(g, eta, conj)
    kappa = Fraction(len(x), n)
    if kappa < (epsilon - eta) / (1 - eta):
        raise ConsistencyError(
            f"kappa={kappa} below (eps-eta)/(1-eta)={(epsilon - eta) / (1 - eta)}"
        )

    s = growth_index(g, x)
    h = find_subgroup_in_product(g, x, s)
    if Fraction(len(h)) <= NU * len(x):
        raise ConsistencyError("subgroup H too small")
    k = groups.coset_action_kernel(g, h)
    if not k.issubset(h):
        raise ConsistencyError("kernel K not contained in H")

    r_cap = class_size_cap(eta, kappa)
    power_cap = (1 / eta) ** (s + 1)
    for v in k:
        size = conj.class_sizes[conj.class_id[v]]
        if Fraction(size) > power_cap or size > r_cap:
            raise ConsistencyError(
                f"element {v} of K has class size {size} above eta^-(s+1)={power_cap} or R={r_cap}"
            )

    # phi injections: rank elements of each conjugacy class by element index.
    labels = [0] * n
    for cls in conj.classes:
        for rank, v in enumerate(sorted(cls.members()), start=1):
            labels[v] = rank

    slice_bits = [0] * max((labels[v] for v in k), default=0)
    for v in k:
        slice_bits[labels[v] - 1] |= 1 << v
    slices = [ElementSet(n, bits) for bits in slice_bits]
    cosets = [c for c in groups.left_cosets(g, k) if g.identity not in c]
    cover = Cover.of(n, cosets + slices)

    if len(slices) > r_cap:
        raise ConsistencyError(f"{len(slices)} slices exceed R={r_cap}")
    index_h = n // len(h)
    index_k = n // len(k)
    if Fraction(index_h) >= 1 / (NU * kappa):
        raise ConsistencyError(f"|G/H|={index_h} not below 1/(nu*kappa)")
    if index_k > math.factorial(index_h):
        raise ConsistencyError(f"|G/K|={index_k} exceeds |G/H|!={math.factorial(index_h)}")

    size_bound = math.factorial(int(1 / (NU * kappa))) - 1 + r_cap
    if cover.size > size_bound:
        raise ConsistencyError(f"cover size {cover.size} exceeds bound {size_bound}")

    ok, witness = cover_avoids(g, cover)
    if not ok:
        raise ConsistencyError(f"emitted cover fails avoidance, witness {witness}")

    return NeumannArtifacts(
        epsilon=epsilon,
        eta=eta,
        X=x,
        kappa=kappa,
        s=s,
        H=h,
        K=k,
        R=r_cap,
        class_labels=tuple(labels),
        cover=cover,
        size_bound=size_bound,
    )


def transcript_lines(art: NeumannArtifacts) -> list[str]:
    return [
        f"kappa={art.kappa.numerator}/{art.kappa.denominator}",
        f"s={art.s}",
        f"H_size={len(art.H)}",
        f"K_size={len(art.K)}",
        f"R={art.R}",
        f"cover_size={art.cover.size}",
        f"size_bound={art.size_bound}",
    ]
