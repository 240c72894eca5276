"""Random finite-round LOCC protocols, as the product operators of their leaves.

A protocol is a tree of rounds.  In each round every branch picks, from
its own history, the party that acts and a random Kraus POVM for it, so
later rounds depend on earlier outcomes.  A leaf's factor for party alpha
is K^dag K, where K is the product of alpha's Kraus operators along the
path; a party that never acts on that path keeps the identity.  Optional
final rounds measure every party in turn in a rank-1 basis drawn anew for
each history.
"""

import numpy as np


def random_kraus(rng, m: int, d: int) -> np.ndarray:
    """m Kraus operators (m, d, d) with sum K^dag K = I: the blocks of the QR
    isometry of an (m d, d) complex Gaussian."""
    q, _ = np.linalg.qr(rng.normal(size=(m * d, d)) + 1j * rng.normal(size=(m * d, d)))
    return q.reshape(m, d, d)


def _act(ks, alpha, k):
    """A branch's Kraus products after party alpha applies k."""
    return ks[:alpha] + [k @ ks[alpha]] + ks[alpha + 1 :]


def protocol_leaves(rng, dims, outcomes, final_bases=False) -> list:
    """The product operators of a random protocol on parties of ``dims``.

    ``outcomes`` gives each round's number of Kraus operators; with
    ``final_bases`` each party in order then measures in an adaptive
    rank-1 basis.
    """
    branches = [[np.eye(d, dtype=complex) for d in dims]]  # per leaf, each party's K
    for m in outcomes:
        grown = []
        for ks in branches:  # the acting party and its POVM depend on the history
            alpha = int(rng.integers(len(dims)))
            grown += [_act(ks, alpha, k) for k in random_kraus(rng, m, dims[alpha])]
        branches = grown
    for alpha in range(len(dims)) if final_bases else ():
        grown = []
        for ks in branches:
            basis = random_kraus(rng, 1, dims[alpha])[0]  # a unitary, one per history
            grown += [_act(ks, alpha, np.outer(u, u.conj())) for u in basis.T]
        branches = grown
    return [[k.conj().T @ k for k in ks] for ks in branches]
