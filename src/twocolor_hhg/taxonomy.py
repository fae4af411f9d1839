"""Classification of quantum orbits and relevance selection for the dipole sum.

The pipelines carry the representatives, the saddles of one half-cycle;
:func:`classify` builds their exact t + T/2 partners.  The representatives
are ordered by travel time Re(tr - ti); the two leading *relevant* families
are "short" and "long", further ones "extra-3", "extra-4", ...  Each partner
takes its representative's family and flag, in the other half-cycle.

Relevance is decided in two tiers.  Tier (a) judges each saddle alone:
Im(ti) of at least IM_TI_FLOOR Keldysh times, |e^{iS}| <= 1 (no exponential
growth), an excursion of at most TAU_MAX_PERIODS periods (the single-return
scope of the dense solve, which continuation alone does not keep), and an
amplitude that does not grow faster than a factor 2 per harmonic order, the
signature of the anti-Stokes partner of a physical orbit; extra families
also face an amplitude floor.  The growth slope is
exact: at a saddle dS/dti = dS/dtr = 0, so dS/dq is the explicit q w tr
term and d ln|e^{iS}|/dq = -w Im(tr).
Tier (b) reads the branch history of :func:`track_branches`, which tracks
branches across harmonic order modulo T/2 and finds the closest approach in
ti of each pair of branches once: a branch must persist for
MIN_BRANCH_SUPPORT orders, and once a short/long pair passes a closest
approach within APPROACH_TOL_PERIODS (the cutoff), the branch growing beyond
that point is dropped for larger orders.  :func:`find_cutoff` is the
tightest of these approaches.  Every discard is written to the audit log.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, count

import numpy as np

from .field import FieldParams, TargetParams
from .saddle import TAU_MAX_PERIODS, SaddlePoint, _fold_distance, with_partners

EXTRA_AMPLITUDE_CUT = 1e-6
GROWTH_LOG_SLOPE = np.log(2.0)   # per harmonic order
MATCH_TOL_PERIODS = 0.12         # branch identification step tolerance
MIN_EXCURSION_PERIODS = 0.1      # stationary-phase validity floor on tau
IM_TI_FLOOR = 0.3                # fraction of the Keldysh time sqrt(2 Ip)/E
MIN_BRANCH_SUPPORT = 3           # orders a trusted branch must persist
APPROACH_TOL_PERIODS = 0.1       # largest |d ti| of a short/long closest approach


@dataclass(frozen=True)
class OrbitLabel:
    half_cycle: int
    family: str                # "short", "long", "extra-3", ...
    relevant: bool

    @property
    def branch_id(self):
        return f"h{self.half_cycle}-{self.family}"


def amplitude(sp: SaddlePoint):
    """|e^{iS}|, the bare exponential weight of a saddle."""
    return float(np.exp(-complex(sp.action).imag))


def classify(p: FieldParams, reps, relevant_mask=None):
    """Label the saddles of one fundamental period: the representatives
    ``reps`` and the partners this builds (:func:`.saddle.with_partners`).

    ``relevant_mask`` has one flag per representative and marks the orbits
    the family naming ranks first; without it every representative is
    principal.  The families are ranked once, over the representatives: the
    principal ones by travel time (short, long, extra-3, ...), then the
    remaining ones continuing the extra numbering.  Each partner takes its
    representative's family and flag.  A representative's half-cycle is
    floor(2 Re(ti) / T) mod 2, wherever continuation has carried it; its
    partner's is the other one.  The result is sorted by (Re ti, Re tr),
    which fixes the dipole summation order.
    """
    n = len(reps)
    partners = with_partners(p, reps)[n:]
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
        for sp, h in ((reps[i], half), (partners[i], 1 - half)):
            out.append((sp, OrbitLabel(half_cycle=h, family=family,
                                       relevant=bool(relevant_mask[i]))))
    out.sort(key=lambda t: (t[0].ti.real, t[0].tr.real))
    return out


@dataclass(frozen=True)
class BranchHistory:
    """Branches tracked across harmonic order, with their close approaches.

    ``assignment[q]`` lists the branch keys parallel to the representatives
    of order q; ``branches[key]`` is the q-sorted list of (q, representative)
    of one branch; ``approaches[(a, b)]`` is the (q_c, distance) of each pair
    of branches, a < b in key order, whose :func:`closest_approach` lies
    within APPROACH_TOL_PERIODS, in the order the pairs were visited.
    """

    assignment: dict
    branches: dict
    approaches: dict


def match_branches(prev, reps, period):
    """For each saddle of ``reps`` the index of its predecessor in ``prev``,
    or -1: pairs are taken nearest first by their distance modulo T/2
    (:func:`.saddle._fold_distance`), ties in (reps, prev) order, each saddle
    once and within MATCH_TOL_PERIODS periods, so an orbit whose Re(ti)
    leaves [0, T/2) keeps its predecessor."""
    out = np.full(len(reps), -1, dtype=int)
    a, b = (np.array([(sp.ti, sp.tr) for sp in sads], dtype=complex).reshape(-1, 2)
            for sads in (reps, prev))
    dist = _fold_distance(a[:, None, 0] - b[:, 0], a[:, None, 1] - b[:, 1], period)[1]
    taken = set()
    for flat in np.argsort(dist, axis=None, kind="stable"):
        i, k = divmod(int(flat), len(prev))
        if dist[i, k] > MATCH_TOL_PERIODS * period:
            break
        if out[i] < 0 and k not in taken:
            out[i] = k
            taken.add(k)
    return out


def track_branches(per_q, period):
    """Assign stable branch keys to representatives across harmonic orders.

    ``per_q`` maps order q to its representatives.  Those at neighbouring
    orders are paired by :func:`match_branches`; unmatched ones open new
    branches.  Each pair of branches is then searched once for its closest
    approach.  Returns the :class:`BranchHistory`.
    """
    assignment = {}
    history = {}
    prev_keys, prev_sads = [], []
    new_keys = count()
    for q in sorted(per_q):
        sads = per_q[q]
        keys = [prev_keys[k] if k >= 0 else next(new_keys)
                for k in match_branches(prev_sads, sads, period)]
        assignment[q] = keys
        for sp, key in zip(sads, keys):
            history.setdefault(key, []).append((q, sp))
        prev_keys, prev_sads = keys, sads
    approaches = {}
    for a, b in combinations(history, 2):
        hit = closest_approach(history[a], history[b], period)
        if hit is not None and hit[1] <= APPROACH_TOL_PERIODS * period:
            approaches[(a, b)] = hit
    return BranchHistory(assignment=assignment, branches=history,
                         approaches=approaches)


def closest_approach(entry_a, entry_b, period):
    """Global minimum of |ti_a - ti_b| modulo T/2 over the common q, if interior.

    Returns (q_c, distance), or None when the support has under three orders
    or the global minimum lies at an end, even beside an interior local one.
    """
    qa, qb = dict(entry_a), dict(entry_b)
    common = sorted(set(qa) & set(qb))
    if len(common) < 3:
        return None
    d = np.array([(qa[qq].ti - qb[qq].ti, qa[qq].tr - qb[qq].tr) for qq in common])
    dist = _fold_distance(d[:, 0], d[:, 1], period)[0]
    k = int(np.argmin(dist))
    if k == 0 or k == len(common) - 1:
        return None
    return common[k], float(dist[k])


def relevance_mask(p: FieldParams, tgt: TargetParams, q, saddles,
                   history=None, audit=None):
    """Per-saddle relevance decisions (True = include in the dipole sum).

    ``saddles`` are the representatives of one half-cycle;
    :func:`classify` gives each partner its representative's flag, so
    half-cycle partners agree by construction and each discard is audited
    once.  With the :class:`BranchHistory` of :func:`track_branches`, whose
    order q lists ``saddles``, over at least MIN_BRANCH_SUPPORT orders, the
    branch-support rule and the short/long closest-approach rule also apply.
    The growth slope needs no solve on either path: it is
    d ln|e^{iS}|/dq = -w Im(tr), exact at a saddle.
    """
    if audit is None:
        audit = []
    n = len(saddles)
    mask = np.ones(n, dtype=bool)
    reasons = [None] * n
    amps = np.array([amplitude(sp) for sp in saddles])
    # branch support needs saddles at MIN_BRANCH_SUPPORT orders or more
    tracked = (history is not None and sum(map(bool, history.assignment.values()))
               >= MIN_BRANCH_SUPPORT)
    keys = history.assignment[q] if tracked else None
    im_floor = IM_TI_FLOOR * np.sqrt(2.0 * tgt.Ip) / max(p.E1, p.E2)
    tau_floor = MIN_EXCURSION_PERIODS * p.period
    for i, sp in enumerate(saddles):
        slope = -p.omega * sp.tr.imag
        if amps[i] > 1.0 + 1e-12:
            mask[i], reasons[i] = False, "|e^{iS}| > 1 (exponentially growing)"
        elif sp.excursion < tau_floor:
            mask[i], reasons[i] = False, (
                f"excursion {sp.excursion:.2f} below stationary-phase floor")
        elif sp.excursion > TAU_MAX_PERIODS * p.period:
            mask[i], reasons[i] = False, (
                f"excursion {sp.excursion:.2f} beyond the single-return scope")
        elif sp.ti.imag < im_floor:
            mask[i], reasons[i] = False, (
                f"Im(ti) = {sp.ti.imag:.2f} too shallow for a tunnelling orbit")
        elif slope > GROWTH_LOG_SLOPE:
            mask[i], reasons[i] = False, (
                f"amplitude grows with order (log-slope {slope:.2f})")
        elif tracked and len(history.branches[keys[i]]) < MIN_BRANCH_SUPPORT:
            mask[i], reasons[i] = False, (
                f"branch persists for only {len(history.branches[keys[i]])} orders")
        elif tracked:
            # drop the growing member of a collided pair past closest approach
            own = dict(history.branches[keys[i]])
            for pair, (q_c, _) in history.approaches.items():
                if keys[i] in pair and q > q_c and amps[i] > amplitude(own[q_c]):
                    mask[i], reasons[i] = False, (
                        f"grows past short/long closest approach at q={q_c}")
                    break
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


def find_cutoff(history):
    """Flagged cutoff order: closest approach of the dominant orbit pair.

    Returns the (q_c, distance) of the tightest of the branch pairs'
    close approaches in ``history`` (a :class:`BranchHistory`), or None.
    """
    return min(history.approaches.values(), key=lambda hit: hit[1],
               default=None)
