"""Classification of quantum orbits and relevance selection for the dipole sum.

The saddles of one period come as representatives followed by their exact
t + T/2 partners (:func:`.saddle.with_partners`).  The representatives are
ordered by travel time Re(tr - ti); the two leading *relevant* families are
"short" and "long", further ones "extra-3", "extra-4", ...  Each partner
takes its representative's family and flag, in the other half-cycle.

Relevance is decided in two tiers.  Tier (a) judges each saddle alone:
Im(ti) of at least IM_TI_FLOOR Keldysh times, |e^{iS}| <= 1 (no exponential
growth), and an amplitude that does not grow faster than a factor 2 per
harmonic order, the signature of the anti-Stokes partner of a physical
orbit; extra families also face an amplitude floor.  The growth slope is
exact: at a saddle dS/dti = dS/dtr = 0, so dS/dq is the explicit q w tr
term and d ln|e^{iS}|/dq = -w Im(tr).
Tier (b) tracks branches across harmonic order: a branch must persist for
MIN_BRANCH_SUPPORT orders, and once a short/long pair passes its closest
approach in ti (the cutoff), the branch growing beyond that point is dropped
for larger orders.  Every discard is written to the audit log.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import FieldParams, TargetParams
from .saddle import SaddlePoint

EXTRA_AMPLITUDE_CUT = 1e-6
GROWTH_LOG_SLOPE = np.log(2.0)   # per harmonic order
MATCH_TOL_PERIODS = 0.12         # branch identification step tolerance
MIN_EXCURSION_PERIODS = 0.1      # stationary-phase validity floor on tau
IM_TI_FLOOR = 0.3                # fraction of the Keldysh time sqrt(2 Ip)/E
MIN_BRANCH_SUPPORT = 3           # orders a trusted branch must persist


@dataclass(frozen=True)
class OrbitLabel:
    half_cycle: int
    family: str                # "short", "long", "extra-3", ...
    relevant: bool
    excursion: float

    @property
    def branch_id(self):
        return f"h{self.half_cycle}-{self.family}"


def amplitude(sp: SaddlePoint):
    """|e^{iS}|, the bare exponential weight of a saddle."""
    return float(np.exp(-complex(sp.action).imag))


def classify(p: FieldParams, saddles, relevant_mask=None):
    """Label the saddles of one fundamental period.

    ``saddles`` is in :func:`.saddle.with_partners` layout: n representatives,
    then their n partners.  ``relevant_mask`` has one flag per representative
    and marks the orbits the family naming ranks first; without it every
    representative is principal.  The families are ranked once, over the
    representatives: the principal ones by travel time (short, long,
    extra-3, ...), then the remaining ones continuing the extra numbering.
    Each partner takes its representative's family and flag.  A
    representative's half-cycle is floor(2 Re(ti) / T) mod 2, wherever
    continuation has carried it; its partner's is the other one.  The result
    is sorted by (Re ti, Re tr), which fixes the dipole summation order.
    """
    n = len(saddles) // 2
    reps = saddles[:n]
    if relevant_mask is None:
        relevant_mask = [True] * n
    n_principal = int(np.count_nonzero(relevant_mask))
    skip = max(2 - n_principal, 0)   # short/long stay reserved
    ranked = sorted(range(n), key=lambda i: (not relevant_mask[i],
                                             reps[i].excursion))
    out = []
    for rank, i in enumerate(ranked):
        family = (("short", "long")[rank] if rank < min(n_principal, 2)
                  else f"extra-{rank + 1 + skip}")
        half = int(np.floor(2.0 * reps[i].ti.real / p.period)) % 2
        for sp, h in ((reps[i], half), (saddles[n + i], 1 - half)):
            out.append((sp, OrbitLabel(half_cycle=h, family=family,
                                       relevant=bool(relevant_mask[i]),
                                       excursion=sp.excursion)))
    out.sort(key=lambda t: (t[0].ti.real, t[0].tr.real))
    return out


def _range_size(history):
    """Number of distinct orders covered by a continuation history."""
    return len({qq for entries in history.values() for qq, _ in entries})


def track_branches(per_q, period):
    """Assign stable branch keys to saddles across harmonic orders.

    ``per_q`` maps order q to a saddle list (one fundamental period each).
    Saddles at neighbouring orders are matched greedily by their distance
    |d ti| + |d tr|; unmatched saddles open new branches.  Returns
    (assignment, history): ``assignment[q]`` is the list of branch keys
    parallel to ``per_q[q]``; ``history[key]`` is the q-sorted list of
    (q, SaddlePoint).
    """
    qs = sorted(per_q)
    tol = MATCH_TOL_PERIODS * period
    assignment = {}
    history = {}
    prev_keys, prev_sads = [], []
    next_key = 0
    for q in qs:
        sads = per_q[q]
        keys = [None] * len(sads)
        pairs = sorted((abs(sp.ti - ref.ti) + abs(sp.tr - ref.tr), i, k)
                       for i, sp in enumerate(sads)
                       for k, ref in enumerate(prev_sads))
        used_i, used_k = set(), set()
        for d, i, k in pairs:
            if d > tol or i in used_i or k in used_k:
                continue
            keys[i] = prev_keys[k]
            used_i.add(i)
            used_k.add(k)
        for i in range(len(sads)):
            if keys[i] is None:
                keys[i] = next_key
                next_key += 1
        assignment[q] = keys
        for sp, key in zip(sads, keys):
            history.setdefault(key, []).append((q, sp))
        prev_keys, prev_sads = keys, sads
    for key in history:
        history[key].sort(key=lambda t: t[0])
    return assignment, history


def closest_approach(entry_a, entry_b):
    """Interior minimum of |ti_a - ti_b| over the common q support.

    Returns (q_c, distance) or None when there is no interior local minimum.
    """
    qa = {qq: sp for qq, sp in entry_a}
    qb = {qq: sp for qq, sp in entry_b}
    common = sorted(set(qa) & set(qb))
    if len(common) < 3:
        return None
    dist = np.array([abs(qa[qq].ti - qb[qq].ti) for qq in common])
    k = int(np.argmin(dist))
    if k == 0 or k == len(common) - 1:
        return None
    return common[k], float(dist[k])


def relevance_mask(p: FieldParams, tgt: TargetParams, q, saddles,
                   history=None, keys=None, audit=None):
    """Per-saddle relevance decisions (True = include in the dipole sum).

    The pipelines pass the representatives of :func:`.saddle.solve_cycle`
    and give each partner its representative's flag, so half-cycle partners
    agree by construction and each discard is audited once.  With
    ``history``/``keys`` from :func:`track_branches` over at least
    MIN_BRANCH_SUPPORT orders, the branch-support rule and the short/long
    closest-approach rule also apply.  The growth slope needs no solve on
    either path: it is d ln|e^{iS}|/dq = -w Im(tr), exact at a saddle.
    """
    if audit is None:
        audit = []
    n = len(saddles)
    mask = np.ones(n, dtype=bool)
    reasons = [None] * n
    amps = np.array([amplitude(sp) for sp in saddles])
    tracked = history is not None and _range_size(history) >= MIN_BRANCH_SUPPORT
    im_floor = IM_TI_FLOOR * np.sqrt(2.0 * tgt.Ip) / max(p.E1, p.E2)
    tau_floor = MIN_EXCURSION_PERIODS * p.period
    for i, sp in enumerate(saddles):
        slope = -p.omega * sp.tr.imag
        if amps[i] > 1.0 + 1e-12:
            mask[i], reasons[i] = False, "|e^{iS}| > 1 (exponentially growing)"
        elif sp.excursion < tau_floor:
            mask[i], reasons[i] = False, (
                f"excursion {sp.excursion:.2f} below stationary-phase floor")
        elif sp.ti.imag < im_floor:
            mask[i], reasons[i] = False, (
                f"Im(ti) = {sp.ti.imag:.2f} too shallow for a tunnelling orbit")
        elif slope > GROWTH_LOG_SLOPE:
            mask[i], reasons[i] = False, (
                f"amplitude grows with order (log-slope {slope:.2f})")
        elif tracked and len(history[keys[i]]) < MIN_BRANCH_SUPPORT:
            mask[i], reasons[i] = False, (
                f"branch persists for only {len(history[keys[i]])} orders")
    if tracked:
        _apply_pair_rule(p, q, saddles, keys, history, mask, reasons)
    # amplitude floor relative to the dominant relevant saddle; the
    # representatives are the orbits of one half-cycle, wherever continuation
    # has carried their Re(ti)
    ranked = sorted(np.flatnonzero(mask), key=lambda i: -amps[i])
    for i in ranked[2:]:
        dom = amps[ranked[0]]
        if amps[i] < EXTRA_AMPLITUDE_CUT * dom:
            mask[i] = False
            reasons[i] = (f"extra family below amplitude threshold "
                          f"({amps[i]:.3e} vs dominant {dom:.3e})")
    for i, sp in enumerate(saddles):
        if not mask[i]:
            audit.append(f"q={q} ti={sp.ti:.3f}: discarded ({reasons[i]})")
    return mask


def _apply_pair_rule(p, q, saddles, keys, history, mask, reasons):
    """Drop the growing member of a collided pair past closest approach."""
    for i, sp in enumerate(saddles):
        if not mask[i]:
            continue
        own = history[keys[i]]
        for other_key, other in history.items():
            if other_key == keys[i]:
                continue
            hit = closest_approach(own, other)
            if hit is None:
                continue
            q_c, d_min = hit
            if q <= q_c or d_min > 0.1 * p.period:
                continue
            qa = {qq: amplitude(s) for qq, s in own}
            if q_c in qa and amplitude(sp) > qa[q_c]:
                mask[i] = False
                reasons[i] = f"grows past short/long closest approach at q={q_c}"
                break


def find_cutoff(history, period):
    """Flagged cutoff order: closest approach of the dominant orbit pair.

    Scans all branch pairs for an interior minimum of |ti_a - ti_b| and
    returns the (q_c, distance) of the tightest approach, or None.
    """
    best = None
    items = list(history.items())
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            hit = closest_approach(items[a][1], items[b][1])
            if hit is None:
                continue
            if hit[1] > 0.1 * period:
                continue
            if best is None or hit[1] < best[1]:
                best = hit
    return best
