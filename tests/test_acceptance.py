"""Acceptance criteria, one test per criterion.

Every check is an exact identity (zero cleared residual), so tolerances
are exact equality; the stated wall-clock budgets are asserted as upper
bounds.  Each test prints one pass/fail line (visible with pytest -s).
"""

import json
import pathlib
import time

from onsaw import askey_wilson as aw
from onsaw import charges as ch
from onsaw import cli
from onsaw import frt
from onsaw import loop_algebra as la
from onsaw import onsager as on
from onsaw import rmatrix as rm


class criterion:
    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.number}: {self.label} ({elapsed:.1f}s)", flush=True)
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.1f}s"
            )
        return False


def test_criterion_1_rmatrix_suite():
    with criterion(1, "skew-symmetry and the Yang-Baxter equation, N=2..5", 60):
        for dim in (2, 3, 4, 5):
            assert rm.check_skew(dim).ok(), dim
            assert rm.check_cybe(dim).ok(), dim
        # negative controls locate the corrupted entry
        r = rm.build_r(2)
        bad = r.with_entry((1, 2), (2, 1), -r.entry((1, 2), (2, 1)))
        loc = rm.skew_residual(2, bad).first_nonzero()
        assert loc is not None and (loc[0], loc[1]) == ((1, 2), (2, 1))

        def flat(dim, xv, yv):
            rr = rm.build_r(dim, xv, yv)
            out = rm.TensorOperator(rr.legs, rr.dim, rr.den)
            for r, row in rr.rows.items():
                for c, v in row.items():
                    if r != c:
                        out.put(rr.digits(r), rr.digits(c), v)
            return out

        r13 = flat(2, "x1", "x3").embed_legs((1, 3), 3)
        r23 = flat(2, "x2", "x3").embed_legs((2, 3), 3)
        r12 = flat(2, "x1", "x2").embed_legs((1, 2), 3)
        assert rm.cybe_residual(r13, r23, r12).first_nonzero() is not None


def test_criterion_2_folding_suite():
    with criterion(2, "folded r-matrix and the non-standard equation, N=2..5", 120):
        for dim in (2, 3, 4, 5):
            folded, closed = rm.build_rbar(dim)
            assert (folded - closed).is_zero(), dim
            assert rm.ns_cybe_residual(*rm.ns_cybe_operators(dim)).is_zero(), dim


def test_criterion_3_automorphism_suite():
    with criterion(3, "involutive automorphisms, generator and matrix form", 120):
        for dim in (2, 3, 4):
            assert frt.check_automorphism("theta1", dim, 3).ok(), dim
        for dim in (2, 4):
            for eps in (1, -1):
                assert frt.check_automorphism("theta2", dim, 3, eps).ok(), (dim, eps)
        for dim in (2, 3, 4):
            assert frt.check_theta_matrix_form("theta1", dim, 4).ok(), dim
        for dim in (2, 4):
            for eps in (1, -1):
                assert frt.check_theta_matrix_form("theta2", dim, 4, eps).ok(), (dim, eps)


def test_criterion_4_frt_suite():
    with criterion(4, "exchange relations with the central term, N=2..4 at D=6", 300):
        for dim in (2, 3, 4):
            rep = frt.check_frt(dim, 6)
            assert rep.ok(), (dim, [c.detail for c in rep.failures()])
        mism, _ = frt.frt_relation_mismatch(2, 6, 1, -1, include_central=False)
        assert mism is not None
        assert la.CENTRAL in mism[4].coeffs


def test_criterion_5_onsager_equivalence():
    with criterion(5, "abstract brackets vs the loop-algebra oracle, N=2..4", 300):
        for dim in (2, 3, 4):
            assert on.check_presentation_agreement(dim, 3).ok(), dim
            rep = on.check_UI_relations(dim, 3)
            assert rep.ok(), (dim, [c.detail for c in rep.failures()])
        for dim in (3, 4):
            assert on.check_OAn_presentation(dim).ok(), dim


def test_criterion_6_reflection_and_currents():
    with criterion(6, "reflection relation and current algebra", 600):
        for dim, cutoff in ((2, 6), (3, 6), (4, 5)):
            rep = on.check_reflection(dim, cutoff)
            assert rep.ok(), (dim, [c.detail for c in rep.failures()])
            rep = on.check_currents(dim, cutoff)
            assert rep.ok(), (dim, [c.detail for c in rep.failures()])
            assert on.check_Bxg(dim, cutoff).ok(), dim


def test_criterion_7_charges():
    with criterion(7, "commutative subalgebra with symbolic parameters", 600):
        for dim in (2, 3, 4, 5):
            assert ch.check_trace_condition(dim).ok(), dim
        for dim in (2, 3):
            assert ch.check_b_commutativity(dim, 6).ok(), dim
        for dim, k in ((2, 4), (3, 4), (4, 3)):
            assert ch.check_charge_commutativity(dim, k).ok(), dim
        for dim in (2, 3, 4):
            rep = ch.check_charge_formulas(dim, 1)
            assert rep.ok(), (dim, [c.detail for c in rep.failures()])
            named = [c.name for c in rep.checks if c.name.startswith("I_")]
            assert all("proportionality 2" in n for n in named)


def test_criterion_8_askey_wilson_suite():
    with criterion(8, "quotient tables: Jacobi, exact reflection, presentations", 120):
        t3, t4 = aw.aw3_table(), aw.aw4_table()
        assert aw.check_jacobi(t3).ok()
        assert aw.check_jacobi(t4).ok()
        rep = aw.check_reflection_aw(t3, aw.build_B_aw(3))
        assert rep.ok(), [c.detail for c in rep.failures()]
        rep = aw.check_reflection_aw(t4, aw.build_B_aw(4))
        assert rep.ok(), [c.detail for c in rep.failures()]
        rep = aw.check_pro1(t3)
        assert rep.ok(), [c.detail for c in rep.failures()]
        assert any("rank 8/8" in c.name for c in rep.checks)
        rep = aw.check_pro2(t4)
        assert rep.ok(), [c.detail for c in rep.failures()]


def test_criterion_9_extraction():
    with criterion(9, "structure constants recovered from the reflection relation", 900):
        for dim, reference in ((3, aw.aw3_table()), (4, aw.aw4_table())):
            tbl, rep = aw.extract_structure_constants(dim)
            assert rep.ok(), (dim, [c.detail for c in rep.failures()])
            assert rep.params["convention"] == "literal"
            m = aw.match_tables(tbl, reference)
            assert m.ok(), (dim, [c.detail for c in m.failures()])
        tbl5, rep5 = aw.extract_structure_constants(5)
        assert tbl5 is not None
        assert rep5.ok(), [c.detail for c in rep5.failures()]
        assert any("jacobi" in c.name for c in rep5.checks)
        assert any(c.name == "all brackets determined" and c.status == "pass"
                   for c in rep5.checks)


SUITES = [
    ["verify", "cybe", "--n", "3"],
    ["verify", "ns-cybe", "--n", "2"],
    ["verify", "skew", "--n", "4"],
    ["verify", "automorphism", "--which", "theta1", "--n", "2", "--levels", "2"],
    ["verify", "automorphism", "--which", "theta2", "--n", "2", "--levels", "2"],
    ["verify", "frt", "--n", "2", "--cutoff", "4"],
    ["verify", "onsager", "--n", "2", "--levels", "2"],
    ["verify", "reflection", "--n", "2", "--cutoff", "4"],
    ["verify", "currents", "--n", "2", "--cutoff", "4"],
    ["verify", "charges", "--n", "2", "--max-order", "2"],
    ["verify", "aw", "--n", "3"],
    ["verify", "aw", "--n", "4"],
    ["charges", "print", "--n", "2", "--max-order", "2"],
]


# each SUITES report without elapsed_ms, and the exported extract aw --n 5
# table: reports stay byte-identical across commits unless a change means
# to alter one, and then this file changes with it
GOLDEN = pathlib.Path(__file__).with_name("golden_reports.json")


def test_criterion_10_determinism(capsys, tmp_path):
    with criterion(10, "byte-identical JSON reports across repeated runs", 600):
        golden = json.loads(GOLDEN.read_text())
        for argv in SUITES:
            full = argv + ["--format", "json"]
            code1 = cli.main(full)
            out1 = capsys.readouterr().out
            code2 = cli.main(full)
            out2 = capsys.readouterr().out
            assert code1 == code2 == 0, argv
            d1, d2 = json.loads(out1), json.loads(out2)
            d1.pop("elapsed_ms"), d2.pop("elapsed_ms")
            assert json.dumps(d1) == json.dumps(d2), argv
            assert json.dumps(d1) == json.dumps(golden["reports"][" ".join(argv)]), argv
        # extraction with a file artifact is also reproducible
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        cli.main(["extract", "aw", "--n", "3", "--out", str(out_a), "--format", "json"])
        capsys.readouterr()
        cli.main(["extract", "aw", "--n", "3", "--out", str(out_b), "--format", "json"])
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        out_5 = tmp_path / "t5.json"
        cli.main(["extract", "aw", "--n", "5", "--out", str(out_5), "--format", "json"])
        capsys.readouterr()
        want = json.dumps(golden["extract aw --n 5 table"], indent=1) + "\n"
        assert out_5.read_text() == want
