"""The certificate workloads of the benchmark, as lists of operations.

An operation is one certificate or one planted-fault control.  Its
function returns ``(passed, data)``: a certificate passes when its
verdict holds, a control passes when its verdict fails (and, where the
relation is linear and local in the planted datum, when the structured
locator names the planted entry).  ``data`` carries what the independent
checks in ``checks.py`` need, such as comparison windows and tables; it
is serialised after the timed region, never inside it.

Every workload is built from a seed, which chooses where each planted
fault goes.  The choices are made when the workload is built, so the
timed region runs the same operations whatever the seed.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

from onsaw import askey_wilson as aw
from onsaw import charges as ch
from onsaw import frt
from onsaw import loop_algebra as la
from onsaw import onsager as on
from onsaw import rmatrix as rm
from onsaw.exactnum import SpectralLaurent, parse_param_poly

CUTOFF = 6  # series cutoff D of the exchange and reflection relations


class Op(NamedTuple):
    name: str
    kind: str  # "cert" or "control"
    run: Callable[[], tuple]


def _cert(name: str, fn: Callable[[], bool]) -> Op:
    return Op(name, "cert", lambda: (bool(fn()), None))


def _planted_delta(rng: random.Random, xv: str, yv: str) -> SpectralLaurent:
    """A nonzero monomial c * xv^a * yv^b with a, b in {0, 1}."""
    c = rng.randint(1, 9) * rng.choice((1, -1))
    return SpectralLaurent.monomial(c, {xv: rng.randint(0, 1), yv: rng.randint(0, 1)})


def _entry(rng: random.Random, dim: int) -> tuple:
    """Row and column digits of one entry of a two-leg operator."""
    return (
        (rng.randint(1, dim), rng.randint(1, dim)),
        (rng.randint(1, dim), rng.randint(1, dim)),
    )


# -- tensor: acceptance criteria 1-2 ------------------------------------------


def _ns_cybe(dim: int) -> Op:
    def run():
        resid = rm.ns_cybe_residual(*rm.ns_cybe_operators(dim))
        return resid.is_zero(), {"den_terms": len(resid.den.terms)}

    return Op(f"ns-cybe N={dim}", "cert", run)


def _skew_control(rng: random.Random, dim: int) -> Op:
    """One entry of r_12 changed; skew-symmetry is linear and local in it,
    so the residual's first nonzero entry must be the planted one."""
    rd, cd = _entry(rng, dim)
    delta = _planted_delta(rng, "x", "y")

    def run():
        bad = rm.build_r(dim, "x", "y").copy()
        bad.put(rd, cd, delta)
        loc = rm.skew_residual(dim, bad).first_nonzero()
        return loc is not None and (loc[0], loc[1]) == (rd, cd), None

    return Op(f"control skew N={dim} entry {rd}->{cd}", "control", run)


def _cybe_control(rng: random.Random, dim: int) -> Op:
    rd, cd = _entry(rng, dim)
    delta = _planted_delta(rng, "x1", "x2")

    def run():
        r12 = rm.build_r(dim, "x1", "x2")
        r12.put(rd, cd, delta)
        r13, r23, _ = rm.cybe_operators(dim)
        resid = rm.cybe_residual(r13, r23, r12.embed_legs((1, 2), 3))
        return not resid.is_zero(), None

    return Op(f"control cybe N={dim} r12 entry {rd}->{cd}", "control", run)


def _ns_cybe_control(rng: random.Random, dim: int) -> Op:
    rd, cd = _entry(rng, dim)
    delta = _planted_delta(rng, "x1", "x3")

    def run():
        r13 = rm.rbar_closed(dim, "x1", "x3")
        r13.put(rd, cd, delta)
        _, r23, r21, r12 = rm.ns_cybe_operators(dim)
        resid = rm.ns_cybe_residual(r13.embed_legs((1, 3), 3), r23, r21, r12)
        return not resid.is_zero(), None

    return Op(f"control ns-cybe N={dim} r13 entry {rd}->{cd}", "control", run)


def tensor(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    for dim in (2, 3, 4, 5):
        ops.append(_cert(f"skew N={dim}", lambda d=dim: rm.check_skew(d).ok()))
        ops.append(_cert(f"cybe N={dim}", lambda d=dim: rm.check_cybe(d).ok()))
    for dim in (2, 3, 4, 5):
        ops.append(_cert(f"rbar-fold N={dim}",
                         lambda d=dim: rm.check_rbar_fold(d).status == "pass"))
        ops.append(_ns_cybe(dim))
    ops.append(_skew_control(rng, 4))
    ops.append(_cybe_control(rng, 2))
    ops.append(_ns_cybe_control(rng, 2))
    return ops


# -- brackets: acceptance criteria 3-7 ----------------------------------------


def _frt(dim: int, sign_a: int, sign_b: int) -> Op:
    kind = "like" if sign_a == sign_b else "mixed"

    def run():
        mism, window = frt.frt_relation_mismatch(dim, CUTOFF, sign_a, sign_b)
        return mism is None, {"relation": f"frt-{kind}", "n": dim, "cutoff": CUTOFF,
                              "window": window}

    return Op(f"frt ({sign_a:+d},{sign_b:+d}) N={dim} D={CUTOFF}", "cert", run)


def _reflection(dim: int, cutoff: int) -> Op:
    def run():
        mism, window = on.reflection_mismatch(dim, cutoff)
        return mism is None, {"relation": "reflection", "n": dim, "cutoff": cutoff,
                              "window": window}

    return Op(f"reflection N={dim} D={cutoff}", "cert", run)


def _currents(dim: int, cutoff: int) -> Op:
    def run():
        mism, window = on.currents_mismatch(dim, cutoff)
        return mism is None, {"relation": "currents", "n": dim, "cutoff": cutoff,
                              "window": window}

    return Op(f"currents N={dim} D={cutoff}", "cert", run)


def _charge_formulas(dim: int) -> bool:
    rep = ch.check_charge_formulas(dim, 1)
    named = [c.name for c in rep.checks if c.name.startswith("I_")]
    return rep.ok() and bool(named) and all("proportionality 2" in n for n in named)


def _frt_central_control() -> Op:
    """The mixed relation without its central term: the first mismatch
    must carry the central element c."""
    def run():
        mism, _ = frt.frt_relation_mismatch(2, CUTOFF, 1, -1, include_central=False)
        return mism is not None and la.CENTRAL in mism[4].coeffs, None

    return Op(f"control frt mixed without c N=2 D={CUTOFF}", "control", run)


def _reflection_control(rng: random.Random, dim: int) -> Op:
    """One entry of the cleared rbar_12 map changed by a monomial of degree
    at most 1 per variable, so the comparison window stays the same."""
    _, r12, _ = rm.cleared_rbar_pair(dim)
    key = rng.choice(sorted(r12))
    delta = _planted_delta(rng, "x", "y")

    def run():
        _, r12c, _ = rm.cleared_rbar_pair(dim)
        bad = dict(r12c)
        bad[key] = bad[key] + delta
        mism, _ = on.reflection_mismatch(dim, CUTOFF, r12=bad)
        return mism is not None, None

    return Op(f"control reflection N={dim} D={CUTOFF} rbar12 entry {key}", "control", run)


def brackets(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    # criterion 3: the involutive automorphisms
    for dim in (2, 3, 4):
        ops.append(_cert(f"theta1 N={dim}",
                         lambda d=dim: frt.check_automorphism("theta1", d, 3).ok()))
    for dim in (2, 4):
        for eps in (1, -1):
            ops.append(_cert(f"theta2 N={dim} eps={eps:+d}",
                             lambda d=dim, e=eps: frt.check_automorphism("theta2", d, 3, e).ok()))
    for dim in (2, 3, 4):
        ops.append(_cert(f"theta1 matrix form N={dim}",
                         lambda d=dim: frt.check_theta_matrix_form("theta1", d, 4).ok()))
    for dim in (2, 4):
        for eps in (1, -1):
            ops.append(_cert(
                f"theta2 matrix form N={dim} eps={eps:+d}",
                lambda d=dim, e=eps: frt.check_theta_matrix_form("theta2", d, 4, e).ok()))
    # criterion 4: the exchange relations
    for dim in (2, 3, 4):
        for sa, sb in ((1, 1), (-1, -1), (1, -1)):
            ops.append(_frt(dim, sa, sb))
    # criterion 5: the three Onsager presentations
    for dim in (2, 3, 4):
        ops.append(_cert(f"onsager embedding N={dim}",
                         lambda d=dim: on.check_presentation_agreement(d, 3).ok()))
        ops.append(_cert(f"onsager A/G relations N={dim}",
                         lambda d=dim: on.check_UI_relations(d, 3).ok()))
    for dim in (3, 4):
        ops.append(_cert(f"onsager N-generator N={dim}",
                         lambda d=dim: on.check_OAn_presentation(d).ok()))
    # criterion 6: reflection relation, currents and B(x)
    for dim, cutoff in ((2, 6), (3, 6), (4, 5)):
        ops.append(_reflection(dim, cutoff))
        ops.append(_currents(dim, cutoff))
        ops.append(_cert(f"B(x) FRT form N={dim} D={cutoff}",
                         lambda d=dim, c=cutoff: on.check_Bxg(d, c).ok()))
    # criterion 7: the commuting charges
    for dim in (2, 3, 4, 5):
        ops.append(_cert(f"trace condition N={dim}",
                         lambda d=dim: ch.check_trace_condition(d).ok()))
    for dim in (2, 3):
        ops.append(_cert(f"b(x) commutativity N={dim}",
                         lambda d=dim: ch.check_b_commutativity(d, 6).ok()))
    for dim, k in ((2, 4), (3, 4), (4, 3)):
        ops.append(_cert(f"charge commutativity N={dim} K={k}",
                         lambda d=dim, kk=k: ch.check_charge_commutativity(d, kk).ok()))
    for dim in (2, 3, 4):
        ops.append(_cert(f"charge formulas N={dim}", lambda d=dim: _charge_formulas(d)))
    ops.append(_frt_central_control())
    ops.append(_reflection_control(rng, 3))
    return ops


# -- extract: acceptance criteria 8-9 and extraction at N = 6, 7 --------------


def _extract(dim: int) -> Op:
    def run():
        tbl, rep = aw.extract_structure_constants(dim)
        data = {"n": dim, "table": tbl,
                "checks": [(c.name, c.status) for c in rep.checks]}
        return tbl is not None and rep.ok(), data

    return Op(f"extract N={dim}", "cert", run)


def _extract_and_match(dim: int) -> Op:
    def run():
        tbl, rep = aw.extract_structure_constants(dim)
        reference = aw.aw3_table() if dim == 3 else aw.aw4_table()
        ok = (tbl is not None and rep.ok() and rep.params["convention"] == "literal"
              and aw.match_tables(tbl, reference).ok())
        data = {"n": dim, "table": tbl, "reference": reference,
                "checks": [(c.name, c.status) for c in rep.checks]}
        return ok, data

    return Op(f"extract and match N={dim}", "cert", run)


def _mutated_aw3(rng: random.Random) -> tuple:
    """The exported rank-3 table with one bracket coefficient shifted by a
    nonzero rational; returns (label, exported document)."""
    doc = aw.export_table(aw.aw3_table())
    pos = rng.randrange(len(doc["brackets"]))
    name_a, name_b, vec = doc["brackets"][pos]
    comp = rng.randrange(len(vec))
    name_c, coeff = vec[comp]
    shift = rng.randint(1, 5) * rng.choice((1, -1))
    vec[comp] = [name_c, str(parse_param_poly(coeff) + shift)]
    return f"[{name_a},{name_b}] component {name_c} {shift:+d}", doc


def _aw_controls(rng: random.Random) -> list:
    label, doc = _mutated_aw3(rng)

    def jacobi():
        return not aw.check_jacobi(aw.import_table(doc)).ok(), None

    def reflection():
        return aw.reflection_aw_mismatch(aw.import_table(doc), aw.build_B_aw(3)) is not None, None

    return [Op(f"control jacobi rank 3 {label}", "control", jacobi),
            Op(f"control reflection rank 3 {label}", "control", reflection)]


def extract(seed: int) -> list:
    rng = random.Random(seed)
    ops = [
        _cert("jacobi rank 3", lambda: aw.check_jacobi(aw.aw3_table()).ok()),
        _cert("jacobi rank 4", lambda: aw.check_jacobi(aw.aw4_table()).ok()),
        _cert("reflection rank 3",
              lambda: aw.check_reflection_aw(aw.aw3_table(), aw.build_B_aw(3)).ok()),
        _cert("reflection rank 4",
              lambda: aw.check_reflection_aw(aw.aw4_table(), aw.build_B_aw(4)).ok()),
        _cert("presentation rank 3", lambda: aw.check_pro1(aw.aw3_table()).ok()),
        _cert("presentation rank 4", lambda: aw.check_pro2(aw.aw4_table()).ok()),
        _extract_and_match(3),
        _extract_and_match(4),
        _extract(5),
        _extract(6),
        _extract(7),
    ]
    return ops + _aw_controls(rng)


WORKLOADS = {"tensor": tensor, "brackets": brackets, "extract": extract}
