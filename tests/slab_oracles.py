"""The law families as they were scanned one slab per outer element.

Each function below is the program's own family before its slabs were
cut into blocks of outer elements (``util.blocks``): the same tables, the
same order of slabs, one ``util.scan`` item per slab.  The block forms must
agree with them on every input: the same exception (class, message and
payload), the same return value, and the same witness and tuple count from
each scan (``tests/test_block_scans.py``).  A plain module, imported by
that test.
"""

from __future__ import annotations

import numpy as np

from mlacalc import util
from mlacalc.actions import BRACKET_CONDITION_NAMES, PAIR_CONDITION_NAMES, SIDES, _disagreement
from mlacalc.actions import _partner_defect, _require_agreement
from mlacalc.errors import (
    ActionViolation,
    AxiomViolation,
    CompatibilityViolation,
    IdentityViolation,
    InputError,
)
from mlacalc.mla import _ISO_FAILURES, AXIOM_NAMES, _axiom_laws, _plane, broken_axioms
from mlacalc.tensor import TENSOR_IDENTITY_NAMES
from mlacalc.util import CheckReport, first_true


def scan(stage, slabs):
    """util.scan, looked up when called, so that a test can record it."""
    return util.scan(stage, slabs)


# --- mla ------------------------------------------------------------------------


def axiom_sides(G, S, axioms):
    """(axiom, prefix, lhs, rhs): axiom 1 once, axioms 2-5 once per outer x."""
    wanted = set(axioms)
    if 1 in wanted:
        yield 1, (), np.diagonal(S), G.identity
    if not wanted - {1}:
        return
    laws = _axiom_laws(G, S)
    col, row = _plane(G.order)
    for num in sorted(wanted - {1}):
        yz = (row, col) if num == 5 else (col, row)
        for x in range(G.order):
            yield num, (x,), *laws[num](x, *yz)


def check_axioms(M):
    if M._verified:
        return
    num = next(broken_axioms(M.group, M.star), None)
    if num is None:
        return
    sides = axiom_sides(M.group, M.star, (num,))
    at = scan("axiom scan", ((prefix, lhs != rhs) for _, prefix, lhs, rhs in sides))[0]
    labels = [M.group.labels[i] for i in at]
    raise AxiomViolation(
        f"axiom {num} ({AXIOM_NAMES[num]}) fails at ({', '.join(labels)})",
        axiom=num,
        witness=list(at),
    )


def star_iso_failure(M, N, rows, stage):
    g, A, B = M.group.generators, M.group.table, N.group.table
    proven = (M.star_is_trivial and N.star_is_trivial) or (
        M.star_is_commutator and N.star_is_commutator
    )

    def slabs():
        for r, row in enumerate(rows):
            yield (r, 0), np.sort(row) != np.arange(N.order)
            if not (row[A[:, g]] == B[row[:, None], row[g]]).all():
                yield (r, 1), row[A] != B[row[:, None], row[None, :]]
            if not proven:
                yield (r, 2), row[M.star] != N.star[row[:, None], row[None, :]]

    at = scan(stage, slabs())[0]
    if at is None:
        return None
    r, reason, *ab = at
    return r, _ISO_FAILURES[reason], None if reason == 0 else tuple(ab)


def compose_failure(G, rows, stage):
    return scan(stage, (((a,), rows[G.table[a]] != rows[a][rows]) for a in range(G.order)))[0]


# --- actions --------------------------------------------------------------------


def require_bracket_laws(act, co, which, side=None):
    G, H = act.actor.group, act.acted.group
    B, P = act.bracket, act.phi
    Gs, Hs = act.actor.star, act.acted.star
    wanted = set(which)

    def slabs():
        for x in range(G.order):
            if 2 in wanted:
                lhs = B[G.table[x]]
                yield (2, x), lhs != H.table[B[np.ix_(G.conj_table[x], P[x])], B[x][None, :]]
            if 1 in wanted:
                lhs = B[x][H.table]
                t = B[co.phi[:, x][:, None], H.conj_table]
                yield (1, x), lhs != H.table[B[x][:, None], t]
            if 3 in wanted:
                t1 = B[Gs[x][:, None], P]
                t2 = B[co.phi[:, x][None, :], B]
                t3 = B[G.conj_table[x][:, None], H.inverses[B[x]][None, :]]
                prod = H.table[H.table[t1, H.inverses[t2]], H.inverses[t3]]
                yield (3, x), prod != H.identity
            if 4 in wanted:
                u1 = B[co.phi[:, x][None, :], Hs]
                u2 = B[G.inverses[co.bracket[:, x]][:, None], H.conj_table]
                u3 = B[co.bracket[:, x][None, :], P[x][:, None]]
                prod = H.table[H.table[u1, H.inverses[u2]], H.inverses[u3]]
                yield (4, x), prod != H.identity

    at = scan("bracket laws", slabs())[0]
    if at is not None:
        cond, *witness = at
        raise ActionViolation(
            f"bracket law {cond} ({BRACKET_CONDITION_NAMES[cond]}) fails"
            + ("" if side is None else f" on {side}"),
            condition=cond,
            **({} if side is None else {"side": side}),
            witness=witness,
        )


def require_pair_conditions(gh, hg):
    G, H = gh.actor.group, gh.acted.group
    Gs, Hs = gh.actor.star, gh.acted.star
    CG, CH = G.conj_table, H.conj_table
    displays = {
        1: (
            ("G", G.order, lambda g: hg.phi[gh.phi[g]] != CG[g][hg.phi[:, CG[G.inverses[g]]]]),
            ("H", H.order, lambda h: gh.phi[hg.phi[h]] != CH[h][gh.phi[:, CH[H.inverses[h]]]]),
        ),
        2: (
            ("H", G.order, lambda g: gh.bracket[G.inverses[hg.bracket[:, g]]] != Hs[gh.bracket[g]]),
            ("G", H.order, lambda h: hg.bracket[H.inverses[gh.bracket[:, h]]] != Gs[hg.bracket[h]]),
        ),
        3: (
            ("H", G.order, lambda g: CH[gh.bracket[g][:, None], gh.phi[hg.bracket[:, g]]]
             != np.arange(H.order)),
            ("G", G.order, lambda g: hg.phi[gh.bracket[g][:, None], CG[hg.bracket[:, g]]]
             != np.arange(G.order)),
        ),
        4: (
            ("G", G.order, lambda g: CG[g][hg.bracket] != hg.bracket[gh.phi[g][:, None], CG[g]]),
            ("H", H.order, lambda h: CH[h][gh.bracket] != gh.bracket[hg.phi[h][:, None], CH[h]]),
        ),
        5: (
            ("H", G.order, lambda g: gh.bracket[G.table[g, hg.phi[:, G.inverses[g]]]]
             != Hs[gh.mixed_comm_table[g]]),
            ("G", H.order, lambda h: hg.bracket[H.table[h, gh.phi[:, H.inverses[h]]]]
             != Gs[hg.mixed_comm_table[h]]),
        ),
    }
    slabs = (
        ((cond, side, a), fails(a))
        for cond, both in displays.items()
        for side, n, fails in both
        for a in range(n)
    )
    at = scan("pair conditions", slabs)[0]
    if at is not None:
        cond, side, *witness = at
        raise CompatibilityViolation(
            f"pair condition {cond} ({PAIR_CONDITION_NAMES[cond]}) fails on the {side} display",
            condition=cond,
            side=side,
            witness=witness,
        )


def check_partner_generators(pair):
    def slabs():
        for side in SIDES:
            act, co = pair.action(side), pair.companion(side)
            h = np.arange(act.acted.order)
            for g in range(act.actor.order):
                x, y = act.mixed_defect_table[g], _partner_defect(co, g, h)
                yield (side, g), _disagreement(pair, side, x, y)

    message = "generator partner does not act identically"
    checked = _require_agreement(pair, "partner generators", message, slabs(), list)
    return CheckReport("partner-generators", True, checked)


def check_bracket_conjugation(pair):
    def slabs():
        for side in SIDES:
            act, co = pair.action(side), pair.companion(side)
            B, Hc = act.bracket, act.acted.group.conj_table
            for x in range(act.actor.order):
                c = act.mixed_comm_table[x]
                lhs = Hc[B[x][:, None, None], B]
                yield (side, x), lhs != B[co.phi[c][:, :, None], Hc[c][:, None, :]]

    at, checked = scan("bracket conjugation", slabs())
    if at is not None:
        side, *witness = at
        display = "H" if side == "g-on-h" else "G"
        raise IdentityViolation(
            f"bracket conjugation fails on the {display} display", side=side, witness=witness
        )
    return CheckReport("bracket-conjugation", True, checked)


def check_lemma_commutator_bracket(pair):
    def slabs():
        for side in SIDES:
            act, co = pair.action(side), pair.companion(side)
            G, H = act.actor.group, act.acted.group
            for g in range(G.order):
                left = H.comm_table[act.bracket[g]]
                mid = act.bracket[G.table[g, co.phi[:, G.inverses[g]]]]
                right = act.acted.star[act.mixed_comm_table[g]]
                yield (side, g), (left != mid) | (mid != right)

    at, checked = scan("commutator bracket", slabs())
    if at is not None:
        side, *witness = at
        raise IdentityViolation("commutator/bracket/star chain breaks", side=side, witness=witness)
    return CheckReport("commutator-bracket-chain", True, checked)


# --- tensor ---------------------------------------------------------------------


def check_tensor_identities(t, only=None):
    act_g, act_h = t._require_actions()
    pair = t.pair
    act, co = pair.g_on_h, pair.h_on_g
    G, H = pair.G.group, pair.H.group
    K = t.group
    T, inv = K.table, K.inverses
    tm = t.tensor_map
    ng, nh = G.order, H.order
    gslot = G.table[np.arange(ng)[:, None], G.inverses[co.phi.T]]
    hslot = act.mixed_comm_table
    which = [only] if only is not None else sorted(TENSOR_IDENTITY_NAMES)
    out = {}
    for k in which:
        if k not in TENSOR_IDENTITY_NAMES:
            raise InputError(f"unknown tensor identity {k}")
        name = f"tensor-identity-{k}"
        witness = None
        checked = 0
        if k == 1:
            checked = ng + nh
            bad_h = first_true(tm[G.identity, :] != K.identity)
            bad_g = first_true(tm[:, H.identity] != K.identity)
            if bad_h is not None:
                witness = (int(G.identity), *bad_h)
            elif bad_g is not None:
                witness = (*bad_g, int(H.identity))
        elif k == 2:
            lhs = inv[tm]
            r1 = act_g[np.arange(ng)[:, None], tm[G.inverses, :]]
            r2 = act_h[np.arange(nh)[None, :], tm[:, H.inverses]]
            checked = 2 * tm.size
            witness = first_true((lhs != r1) | (lhs != r2))
        elif k == 3:
            checked = ng * nh * K.order
            slabs = (((g,), K.conj_table[tm[g]] != act_h[hslot[g]]) for g in range(ng))
            witness = scan(name, slabs)[0]
        elif k == 4:
            checked = ng * nh * nh
            slabs = (
                ((g,), tm[gslot[g]] != T[tt[:, None], act_h[:, inv[tt]].T]) for g, tt in enumerate(tm)
            )
            witness = scan(name, slabs)[0]
        elif k == 5:
            checked = ng * nh * ng
            slabs = (
                ((g,), tm[:, hslot[g]] != T[act_g[:, tt], inv[tt][None, :]]) for g, tt in enumerate(tm)
            )
            at = scan(name, slabs)[0]
            witness = at and (at[0], at[2], at[1])
        elif k == 6:
            checked = (ng * nh) ** 2
            slabs = (
                ((g,), K.comm_table[tm[g]][:, tm] != tm[gslot[g]][:, hslot]) for g in range(ng)
            )
            witness = scan(name, slabs)[0]
        out[k] = CheckReport(name, witness is None, checked, witness, TENSOR_IDENTITY_NAMES[k])
    return out


def check_tensor_lie_commutator(t):
    act_g, act_h = t._require_actions()
    pair = t.pair
    act, co = pair.g_on_h, pair.h_on_g
    G, H = pair.G.group, pair.H.group
    K = t.group
    T = K.table
    D = t.algebra.lie_defect_table
    tm = t.tensor_map
    ng, nh = G.order, H.order
    dh = act.mixed_defect_table
    bh = act.bracket

    def slabs():
        for g in range(ng):
            for h in range(nh):
                dg = int(co.mixed_defect_table[h, g])
                bg = int(co.bracket[h, g])
                f1 = tm[G.inverses[bg]][dh]
                f2 = tm[G.inverses[dg]][bh]
                f3 = tm[G.inverses[dg]][dh]
                pref = act_g[G.inverses[dg]][act_h[bh, f1]]
                yield (g, h), D[tm[g, h]][tm] != T[T[pref, f2], f3]

    at, checked = scan("tensor-lie-commutator", slabs())
    return CheckReport("tensor-lie-commutator", at is None, checked, at)
