"""Chain-level cap products and the duality verdict.

The cap of a k-cochain with an n-chain splits each simplex into the front
face on vertices 0..n-k and the back face on n-k..n, evaluates the cochain on
the back face, carries the value to the leading vertex through the front-path
transport (edge by edge along consecutive vertices, which flatness makes
path-independent), and tensors with the chain coefficient on the front face.
cap_matrix writes this once, as the matrix of c |-> c cap a for a chain of
any rank; cap_vector checks its inputs and applies that matrix.

The coboundary convention in chains.py is exactly the one that makes

    boundary(c cap a) = c cap boundary(a) - (coboundary c) cap a

hold on the nose; boundary_identity_check evaluates both sides literally.
Capping cocycle representatives with the twisted fundamental cycle gives the
duality map, certified degree by degree through the module machinery; the
verdict is a record whose `table` yields the rows of its report.
Memoized (`complexes.memo`): each degree's duality map, on the system, keyed
by the two presentations it is induced between; its isomorphism certificate
is derived again on every call.
"""

from __future__ import annotations

import hashlib
from collections import namedtuple

from .chains import (FundamentalClassData, fundamental_class_direct,
                     pair_complex, relative_killed, transfer_matrix)
from .complexes import FullSubcomplex, memo, validate
from .errors import (BaseMismatch, DegreeMismatch, NotRelativeCocycle,
                     RingMismatch, TwistcapError)
from .fpmodules import homology_presentation, induced_map, is_isomorphism
from .localsystems import tensor
from .matrices import ExactMatrix


def cap_vector(cochain_pc, chain_pc, out_pc, k, c_vec, n, a_vec):
    """The chain c cap a; coordinates are taken from the three complexes.

    Relative inputs work unchanged: coordinates killed on either side simply
    contribute nothing, which is the canonical-lift reading of the quotient.
    """
    G = cochain_pc.system
    Gp = chain_pc.system
    if G.base != Gp.base:
        raise BaseMismatch("cap factors live on different complexes")
    if G.ring != Gp.ring:
        raise RingMismatch("cap factors over different rings")
    if k < 0 or n < k:
        raise DegreeMismatch(f"cap needs 0 <= k <= n, got k={k}, n={n}")
    if len(a_vec) != chain_pc.length(n) or len(c_vec) != cochain_pc.length(k):
        raise DegreeMismatch("cap input vector lengths do not match degrees")
    return cap_matrix(cochain_pc, chain_pc, out_pc, k, n, a_vec).apply(c_vec)


def cap_setting(M, G, Gp):
    """The three pair complexes a cap computation runs over."""
    return (pair_complex(M, G), pair_complex(M, Gp),
            pair_complex(M, tensor(G, Gp)))


def boundary_identity_check(M, G, Gp, k, n, c_vec, a_vec):
    """Verify the cap boundary identity exactly, returning (holds, diff).

    With the boundary convention fixed by the chain module (transport on the
    0th face with sign +1) and the cap formula fixed as implemented, the
    identity that holds on the nose is

        boundary(c cap a) = c cap boundary(a) + (-1)^(n-k) (delta c) cap a.

    The weight (-1)^(n-k) on the coboundary term is forced: it depends on the
    chain degree n, so no degreewise rescaling of delta alone can replace it
    by a constant sign.  This bidegree-weighted form is the library's pinned
    identity; the difference chain of the three terms is returned alongside
    the verdict.
    """
    cochain_pc, chain_pc, out_pc = cap_setting(M, G, Gp)
    ring = G.ring
    lhs = out_pc.boundary(n - k).apply(
        cap_vector(cochain_pc, chain_pc, out_pc, k, c_vec, n, a_vec))
    target_len = out_pc.length(n - k - 1)
    if n - 1 >= k:
        da = chain_pc.boundary(n).apply(a_vec)
        mid = cap_vector(cochain_pc, chain_pc, out_pc, k, c_vec, n - 1, da)
    else:
        mid = (ring.zero,) * target_len
    if k + 1 <= n:
        dc = cochain_pc.coboundary(k).apply(c_vec)
        last = cap_vector(cochain_pc, chain_pc, out_pc, k + 1, dc, n, a_vec)
    else:
        last = (ring.zero,) * target_len
    weight = ring.normalize((-1) ** (n - k))
    diff = tuple(ring.normalize(x - y - weight * z)
                 for x, y, z in zip(lhs, mid, last))
    return all(x == ring.zero for x in diff), diff


def cap_matrix(cochain_pc, chain_pc, out_pc, k, n, a_vec) -> ExactMatrix:
    """Matrix of `c |-> c cap a` for a fixed n-chain a, the one cap product.

    An n-simplex s whose coefficient block a_s, back face s[n-k:] and front
    face s[:n-k+1] all have coordinates contributes F[i, j] * a_s[b] at row
    (front, i, b) and column (back, j): the cochain value on the back face
    is carried to the leading vertex by the front-path transport F and
    tensored with the chain coefficient.
    """
    G = cochain_pc.system
    ring = G.ring
    norm, zero = ring.normalize, ring.zero
    rG, rGp = G.rank, chain_pc.rank
    cochain_index = cochain_pc.index(k)
    out_index = out_pc.index(n - k)
    data = [{} for _ in range(out_pc.length(n - k))]
    for pos, s in enumerate(chain_pc.space(n)):
        block = a_vec[pos * rGp:(pos + 1) * rGp]
        if not any(block):
            continue
        cpos = cochain_index.get(s[n - k:])
        if cpos is None:
            continue
        front = s[:n - k + 1]
        opos = out_index.get(front)
        if opos is None:
            continue
        for i, frow in enumerate(G.path_transport(front).sparse_rows):
            base = (opos * rG + i) * rGp
            for b, w in enumerate(block):
                if not w:
                    continue
                row = data[base + b]
                for j, x in frow.items():
                    col = cpos * rG + j
                    y = norm(row.get(col, zero) + x * w)
                    if y:
                        row[col] = y
                    else:
                        row.pop(col, None)
    return ExactMatrix._from_rows(ring, data, cochain_pc.length(k))


def relative_cap(M, G, K: FullSubcomplex, k, c_vec, nu: FundamentalClassData):
    """Cap a relative cocycle with the restricted fundamental class.

    Returns the absolute homology presentation in degree n-k together with
    the class coordinates of the result.
    """
    ring = G.ring
    n = M.dimension
    killed = relative_killed(M, K)
    cochain_pc = pair_complex(M, G, killed=killed)
    if len(c_vec) != cochain_pc.length(k):
        raise DegreeMismatch("relative cochain has the wrong length")
    dc = cochain_pc.coboundary(k).apply(c_vec)
    if any(x != ring.zero for x in dc):
        raise NotRelativeCocycle("cochain is not a relative cocycle")
    chain_pc = pair_complex(M, nu.system, killed=killed)
    alpha = transfer_matrix(pair_complex(M, nu.system), chain_pc, n).apply(
        nu.chain)
    da = chain_pc.boundary(n).apply(alpha)
    if any(x != ring.zero for x in da):
        raise TwistcapError("restricted fundamental chain is not a relative cycle")
    out_pc = pair_complex(M, tensor(G, nu.system))
    result = cap_vector(cochain_pc, chain_pc, out_pc, k, c_vec, n, alpha)
    pres = homology_presentation(out_pc.boundary(n - k + 1),
                                 out_pc.boundary(n - k))
    coords = pres.class_vector(result)
    if coords is None:
        raise TwistcapError("relative cap failed to produce a cycle")
    return pres, coords


# ---------------------------------------------------------------------------
# the duality verdict
# ---------------------------------------------------------------------------

# degree k: the duality map H^k(M; G) -> H_{n-k}(M; G (x) M_R) between the
# FPModules left and right, and its IsoResult
class DualityRow(namedtuple("DualityRow", "degree left right map iso")):
    __slots__ = ()

    @property
    def verdict(self) -> bool:
        return self.iso.isomorphism

    def certificate_hash(self) -> str:
        if self.iso.isomorphism:
            payload = ("inverse", self.iso.inverse.data)
        elif self.iso.kernel_witness is not None:
            payload = ("kernel", self.iso.kernel_witness)
        else:
            payload = ("cokernel", self.iso.cokernel_witness)
        return hashlib.sha256(repr(payload).encode()).hexdigest()[:12]


class DualityReport(namedtuple("DualityReport", "base system ring rows")):
    __slots__ = ()

    @property
    def all_verified(self) -> bool:
        return all(r.verdict for r in self.rows)

    def table(self):
        """The report's rows: a header, then one row per degree, whose
        verdict cell is FAIL when the degree is no isomorphism."""
        yield "degree", "left", "right", "verdict", "certificate"
        for r in self.rows:
            yield (r.degree, r.left, r.right, "iso" if r.verdict else "FAIL",
                   r.certificate_hash())


def verify_duality(M, G, ring) -> DualityReport:
    """Certify H^k(M; G) -> H_{n-k}(M; G (x) M_R) via capping with the
    twisted fundamental class, in every degree.

    Each degree's duality map, the map the cap matrix induces, is built
    once: it is memoized on G under ("duality_map", k, src, dst), keyed by
    the two presentations it is induced between, so a presentation built
    afresh gets a map of its own.  The memo is read only after every input
    check (the ring, the closed manifold, the base of each pair complex),
    and is_isomorphism runs on every call: it reads the image the map owns
    and certifies the inverse again.
    """
    if G.ring != ring:
        raise RingMismatch("system ring does not match the requested ring")
    report = validate(M)
    if not report.closed_pseudomanifold:
        raise TwistcapError("duality verification needs a closed connected manifold")
    n = M.dimension
    nu = fundamental_class_direct(M, ring)
    GT = tensor(G, nu.system)
    pcG = pair_complex(M, G)
    pcT = pair_complex(M, GT)
    chain_pc = pair_complex(M, nu.system)
    rows = []
    for k in range(n + 1):
        src, dst = pcG.cohomology(k), pcT.homology(n - k)
        mmap = memo(G, ("duality_map", k, src, dst), lambda: induced_map(
            cap_matrix(pcG, chain_pc, pcT, k, n, nu.chain), src, dst))
        iso = is_isomorphism(mmap)
        rows.append(DualityRow(k, src.module, dst.module, mmap, iso))
    return DualityReport(M, G, ring, tuple(rows))
