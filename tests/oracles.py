"""Oracle-only helpers that the tests check the package's fast paths against.

No package code calls these, so they live with the tests instead of in
``liechar.__all__``.
"""

from liechar import GroupRingElt, weight


def dominant_representative(rs, lam):
    """The dominant weight in the W-orbit of lam, for any integral lam of rs's rank."""
    rs._require_rank(lam)
    return rs._reflect_to_dominant(weight(lam))


def orbit_alternating_sum(rs, mu):
    """A_mu = sum_w eps(w) e^{w(mu)} for regular dominant mu."""
    return GroupRingElt({nu: par for nu, par in rs.weyl_orbit_signed(mu)})
