"""The parameter matrix, the commutativity condition, and the charges."""

from onsaw import charges as ch
from onsaw import onsager as on
from onsaw.exactnum import ParamPoly, SpectralLaurent
from onsaw.frt import apply_theta1
from onsaw.rmatrix import TensorOperator, parity_sign

X = SpectralLaurent.variable("x")
XI = SpectralLaurent.variable("x", -1)
Y = SpectralLaurent.variable("y")


def test_M_entries():
    m = ch.build_M(2)
    mu1 = ParamPoly.variable("mu1")
    assert m.entry((1,), (1,)) == (X - XI) * mu1 * m.den
    m3 = ch.build_M(3)
    ka, ks = ParamPoly.variable("ka1_2"), ParamPoly.variable("ks1_2")
    assert m3.entry((2,), (1,)) == (SpectralLaurent.const(ka) - X * ks) * m3.den
    assert m3.entry((1,), (2,)) == (SpectralLaurent.const(ka) + XI * ks) * m3.den


def test_M_diagonal_when_off_terms_vanish():
    m = ch.build_M(3)
    # zero out every kappa (they live in the coefficient parameters):
    # only the diagonal survives
    def strip(v):
        kept = {}
        for mono, coeff in v.terms.items():
            keep = ParamPoly({
                pm: q for pm, q in coeff.terms.items()
                if all(not name.startswith(("ka", "ks")) for name, _ in pm)
            })
            if keep:
                kept[mono] = keep
        return SpectralLaurent(kept)

    stripped = TensorOperator(m.legs, m.dim, m.den)
    for r, row in m.rows.items():
        for c, v in row.items():
            stripped.put(m.digits(r), m.digits(c), strip(v))
    for r, row in stripped.rows.items():
        for c, v in row.items():
            assert r == c, (r, c, v)


def test_trace_condition():
    for dim in (2, 3, 4):
        rep = ch.check_trace_condition(dim)
        assert rep.ok(), [c.detail for c in rep.failures()]


def test_trace_condition_negative_control():
    # dropping the (-1)^(i+j) sign below the diagonal breaks the condition
    def bad_M(dim, xv="x"):
        sigma = parity_sign(dim)
        p = ch.ChargeParams(dim)
        op = TensorOperator(1, dim)
        x1 = SpectralLaurent.variable(xv)
        xm1 = SpectralLaurent.variable(xv, -1)
        for i in range(1, dim + 1):
            op.put((i,), (i,), (x1 - xm1 * sigma) * p.mu(i))
        for i in range(1, dim + 1):
            for j in range(i + 1, dim + 1):
                ka, ks = p.ka(i, j), p.ks(i, j)
                op.put((i,), (j,), SpectralLaurent.const(ka) + xm1 * ks)
                op.put((j,), (i,), (SpectralLaurent.const(ka) + x1 * (ks * sigma)) * -1)
        return op

    resid = ch.trace_condition_residual(3, m_builder=bad_M)
    assert not resid.is_zero()


def test_trace_condition_check_names_the_entry(monkeypatch):
    # M(x) whose entry (1,2) gains x
    def bad_M(dim, xv="x"):
        m = ch.build_M(dim, xv)
        return m.with_entry((1,), (2,), m.entry((1,), (2,)) + SpectralLaurent.variable(xv))

    real = ch.trace_condition_residual
    monkeypatch.setattr(ch, "trace_condition_residual", lambda dim: real(dim, bad_M))
    rep = ch.check_trace_condition(2)
    assert [(c.name, c.status, c.detail) for c in rep.checks] == [
        ("trace-condition", "fail", "entry (1,)->(1,) residual coefficient 2*ka1_2")]


def _trace_kernels(dim, i, j):
    """Kernels of the cancellation pattern, read off the computed trace.

    W multiplies E_ij and V multiplies E_ji inside tr_1(rbar_12 M_1);
    the U difference is the diagonal difference of the same trace.  All
    three are numerators over the trace's denominator, returned last.
    """
    from onsaw.rmatrix import rbar_closed

    rb = rbar_closed(dim, "x", "y")
    m1 = ch.build_M(dim, "x").embed_legs((1,), 2)
    tr = (rb @ m1).partial_trace(1)
    W = tr.entry((i,), (j,))
    V = tr.entry((j,), (i,))
    U_diff = tr.entry((i,), (i,)) - tr.entry((j,), (j,))
    return W, V, U_diff, tr.den


def _m_kernels(dim, i, j):
    sigma = parity_sign(dim)
    p = ch.ChargeParams(dim)
    ka = SpectralLaurent.const(p.ka(i, j))
    ks = SpectralLaurent.const(p.ks(i, j))
    yinv = SpectralLaurent.variable("y", -1)
    s = parity_sign(i + j)
    A = Y - yinv * sigma
    B = ka + ks * yinv
    C = (ka + ks * Y * sigma) * (-s)
    return A, B, C


def test_proof_cancellation_patterns():
    # (U_i - U_j) B_ij + W_ij (A_j - A_i) = 0 and its mirror with V_ij, C_ij,
    # where A_i = (y - (-1)^N/y) mu_i; kernels taken entrywise from the trace,
    # whose common denominator drops out of both homogeneous identities
    for dim in (2, 3):
        p = ch.ChargeParams(dim)
        W, V, U_diff, _ = _trace_kernels(dim, 1, 2)
        A, B, C = _m_kernels(dim, 1, 2)
        mu1 = SpectralLaurent.const(p.mu(1))
        mu2 = SpectralLaurent.const(p.mu(2))
        assert (U_diff * B + W * (A * mu2 - A * mu1)).is_zero()
        assert ((-U_diff) * C + V * (A * mu1 - A * mu2)).is_zero()


def test_W_kernel_matches_display():
    # the displayed W transcription agrees with the computed one at both
    # parities (the displayed V holds verbatim only at even rank)
    for dim in (2, 3):
        sigma = parity_sign(dim)
        one = SpectralLaurent.const(1)
        p = ch.ChargeParams(dim)
        ka = SpectralLaurent.const(p.ka(1, 2))
        ks = SpectralLaurent.const(p.ks(1, 2))
        # W_display = (ka + ks x s) 2s / (s - x y) + (ka + ks/x) 2x / (y - x)
        d1, d2 = one * sigma - X * Y, Y - X
        W_disp = (ka + ks * X * sigma) * (2 * sigma) * d2 + (ka + ks * XI) * (2 * X) * d1
        D_disp = d1 * d2
        W, _, _, den = _trace_kernels(dim, 1, 2)
        assert W * D_disp == W_disp * den


def test_proof_entrywise_cancellation():
    # every entry of the commutator vanishes, in particular the (1,3)
    # component carrying the triple-index cancellation at rank 3
    resid = ch.trace_condition_residual(3)
    assert resid.entry((1,), (3,)).is_zero()
    assert resid.is_zero()


def test_b_series_linear_in_parameters():
    series = ch.build_b(2, 4)
    for n, elem in series.items():
        for sym, coeff in elem.coeffs.items():
            for mono, _ in coeff.terms.items():
                assert sum(e for _, e in mono) == 1


def test_I0_matches_display():
    # order-0 coefficient at rank 2, canonicalized
    charges = ch.extract_charges(2, 0)
    i0 = charges[0].value
    want = ch.displayed_charge(2, 0).scale(2)
    assert (i0 - want).is_zero()


def test_charges_match_display():
    for dim in (2, 3):
        rep = ch.check_charge_formulas(dim, 3)
        assert rep.ok(), [c.detail for c in rep.failures()]
        # the reported proportionality constant is 2
        assert all("proportionality 2" in c.name for c in rep.checks
                   if c.name.startswith("I_"))


def test_b_commutativity():
    assert ch.check_b_commutativity(2, 6).ok()
    assert ch.check_b_commutativity(3, 5).ok()


def test_charge_formulas_negative_control(monkeypatch):
    # the closed form at n=1 gains B[1,2]^(3); I_0 is untouched
    real = ch.displayed_charge

    def bad_display(dim, n):
        out = real(dim, n)
        return out + on.canonicalize_B(dim, 1, 2, 3) if n == 1 else out

    monkeypatch.setattr(ch, "displayed_charge", bad_display)
    rep = ch.check_charge_formulas(2, 1)
    assert [(c.name, c.status, c.detail) for c in rep.checks] == [
        ("I_0 closed form (proportionality 2)", "pass", None),
        ("I_1 closed form", "fail",
         "not proportional: expansion (-2*mu1+2*mu2)*B[1,1]^(2) + 2*ka1_2*B[1,2]^(1)"
         " + 2*ks1_2*B[1,2]^(2) + 2*ka1_2*B[2,1]^(1) + 2*ks1_2*B[1,2]^(0)"),
        ("generic formula boundary n=1", "fail", "generic(1) differs from I_1"),
    ]


def test_b_commutativity_negative_control(monkeypatch):
    # b_0 gains B[1,2]^(1)
    real = ch.build_b

    def bad_b(dim, cutoff):
        series = real(dim, cutoff)
        series[0] = series[0] + on.canonicalize_B(dim, 1, 2, 1)
        return series

    monkeypatch.setattr(ch, "build_b", bad_b)
    rep = ch.check_b_commutativity(2, 3)
    assert [(c.name, c.status, c.detail) for c in rep.checks] == [
        ("generating-function-commutativity", "fail",
         "[b_0, b_1] = 4*ka1_2*B[1,1]^(2) + (2*mu1-2*mu2)*B[1,2]^(3)"
         " + (-2*mu1+2*mu2)*B[2,1]^(1)")]


def test_charge_commutativity():
    assert ch.check_charge_commutativity(2, 4).ok()
    assert ch.check_charge_commutativity(3, 3).ok()


def test_charge_commutativity_negative_control():
    charges = ch.extract_charges(2, 1)
    i0, i1 = charges[0].value, charges[1].value
    # flip the sign of the ks-coefficient terms inside I_1 only
    flipped = on.zero(2)
    for sym, coeff in i1.coeffs.items():
        newc = 0
        for mono, q in coeff.terms.items():
            if any(name.startswith("ks") for name, _ in mono):
                newc = newc + ParamPoly({mono: -q})
            else:
                newc = newc + ParamPoly({mono: q})
        flipped.add_term(sym, newc)
    resid = on.bracket_abstract(i0, flipped)
    assert not resid.is_zero()


def test_parameter_linearity_locator_is_first(monkeypatch):
    # make I_1 and I_2 quadratic in the parameters; the detail names I_1
    real = ch.extract_charges(2, 2)
    mu1 = ParamPoly.variable("mu1")
    planted = [real[0]] + [ch.Charge(c.order, c.value.scale(mu1)) for c in real[1:]]
    monkeypatch.setattr(ch, "extract_charges", lambda dim, max_order: planted)
    rep = ch.check_charge_commutativity(2, 2)
    fail = [c for c in rep.failures() if c.name == "parameter-linearity"]
    assert fail and fail[0].detail == "I_1 coefficient not linear in parameters"


def test_charges_are_theta1_consistent():
    for dim in (2, 3):
        for c in ch.extract_charges(dim, 3):
            im = on.embed(c.value)
            assert (apply_theta1(im) - im).is_zero()


def test_charge_scaling_linearity():
    # I_n(lambda mu, lambda ka, lambda ks) = lambda I_n: structural via degree
    charges = ch.extract_charges(2, 2)
    for c in charges:
        for coeff in c.value.coeffs.values():
            assert all(sum(e for _, e in mono) == 1 for mono in coeff.terms)


def test_commutativity_brackets_each_unordered_pair_once(monkeypatch):
    # the bracket is antisymmetric: 4 charges need 6 brackets, b_0..b_4 need 10
    calls = []
    real = on.bracket_abstract

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(on, "bracket_abstract", counted)
    assert ch.check_charge_commutativity(3, 3).ok()
    assert len(calls) == 6
    calls.clear()
    assert ch.b_commutativity_mismatch(3, 5) is None
    assert len(calls) == 10
