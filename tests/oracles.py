"""Independent oracles and reference helpers used by the test suite.

These deliberately avoid the engine's homotopy machinery: the moment
recursion below only uses the integration-by-parts identity
integral (g' + g s') e^s = 0, eliminating moments from the top down.  The
weight split reads the grading off each term and nothing else.
"""
from __future__ import annotations

from bvreduce import Action, Scalar, SuperPoly


def ibp_moments(action: Action, k_max: int) -> list[list[Scalar]]:
    """Express the moments I(x^k), k <= k_max, over the basis moments I(x^0..x^{d-2}).

    For s' = sum_i c_i x^i of degree d-1, taking g = x^j in the identity
    j*m_{j-1} + sum_i c_i m_{j+i} = 0 solves for m_{j+d-1} in terms of lower
    moments; iterating expresses every m_k as an exact vector over the first
    d-1 moments.
    """
    if action.n != 1:
        raise ValueError("one-variable oracle")
    d = action.d
    sp = action.s.dx(0)
    c = [sp.coeff((i,)) for i in range(d)]
    assert c[d - 1], "top coefficient of s' must be nonzero"
    dim = d - 1
    vecs: list[list[Scalar]] = []
    for k in range(min(k_max, dim - 1) + 1):
        vecs.append([Scalar(1) if t == k else Scalar(0) for t in range(dim)])
    for k in range(dim, k_max + 1):
        j = k - (d - 1)
        acc = [Scalar(0)] * dim
        if j > 0:
            for t in range(dim):
                acc[t] = acc[t] + vecs[j - 1][t] * j
        for i in range(d - 1):
            if c[i]:
                for t in range(dim):
                    acc[t] = acc[t] + c[i] * vecs[j + i][t]
        vecs.append([-a / c[d - 1] for a in acc])
    return vecs


def weight_split(p: SuperPoly, d: int) -> dict[int, SuperPoly]:
    """Split p into weight-homogeneous parts for deg(x_i) = 1, deg(xi_i) = d - 1."""
    if d < 2:
        raise ValueError("weight grading needs d >= 2")
    out: dict[int, SuperPoly] = {}
    for (e, m), c in p.terms.items():
        w = sum(e) + (d - 1) * m.bit_count()
        out.setdefault(w, SuperPoly(p.n)).terms[(e, m)] = c
    return out
