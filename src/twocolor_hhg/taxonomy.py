"""Classification of quantum orbits and relevance selection for the dipole sum.

Orbits are binned into half-cycles by Re(ti) and, within each half-cycle,
ordered by travel time Re(tr - ti); the two leading *relevant* families are
"short" and "long", further ones "extra-3", "extra-4", ...

Relevance is decided in two tiers.  Tier (a) judges each saddle alone:
Im(ti) > 0, |e^{iS}| <= 1 (no exponential growth), and an amplitude that
does not grow faster than a factor 2 per harmonic order, the signature of
the anti-Stokes partner of a physical orbit; extra families also face an
amplitude floor.  The growth slope is exact: at a saddle dS/dti = dS/dtr = 0,
so dS/dq is the explicit q w tr term and d ln|e^{iS}|/dq = -w Im(tr).
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

BOUNDARY_TOL = 1e-6
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


def _half_cycle_index(p, sp):
    """The half-cycle bin of Re(ti); within BOUNDARY_TOL of an edge, the earlier."""
    half_t = p.period / 2.0
    x = sp.ti.real / half_t
    idx = int(np.floor(x))
    if x - idx < BOUNDARY_TOL / half_t and idx > 0:
        idx -= 1
    return idx


def _family_names(n_principal):
    names = []
    for rank in range(n_principal):
        names.append(("short", "long")[rank] if rank < 2 else f"extra-{rank + 1}")
    return names


def classify(p: FieldParams, saddles, relevant_mask=None):
    """Label saddles from one fundamental period.

    ``relevant_mask`` (parallel to ``saddles``) marks the orbits the family
    naming should rank first; without it every saddle is treated as
    principal.  Within a half-cycle the principal orbits are ordered by
    travel time (short, long, extra-3, ...) and the remaining ones continue
    the extra numbering.  Saddles within the boundary tolerance of a
    half-cycle edge go to the earlier bin.
    """
    if relevant_mask is None:
        relevant_mask = [True] * len(saddles)
    items = [(sp, rel, _half_cycle_index(p, sp))
             for sp, rel in zip(saddles, relevant_mask)]
    out = []
    for half in sorted({idx for _, _, idx in items}):
        members = [(sp, rel) for sp, rel, idx in items if idx == half]
        principal = sorted((m for m in members if m[1]), key=lambda m: m[0].excursion)
        rest = sorted((m for m in members if not m[1]), key=lambda m: m[0].excursion)
        names = _family_names(len(principal))
        start = max(len(principal), 2) + 1   # short/long stay reserved
        ordered = list(zip(principal, names)) + [
            (m, f"extra-{start + k}") for k, m in enumerate(rest)]
        for (sp, rel), family in ordered:
            out.append((sp, OrbitLabel(half_cycle=half, family=family,
                                       relevant=rel, excursion=sp.excursion)))
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
        if sp.ti.imag <= 0:
            mask[i], reasons[i] = False, "Im(ti) <= 0 (conjugate solution)"
        elif amps[i] > 1.0 + 1e-12:
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
