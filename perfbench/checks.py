"""Independent checks of a round's outputs, in the benchmark's own arithmetic.

Nothing here imports ``onsaw``.  Tables arrive as the JSON documents of
``onsaw.askey_wilson.export_table``; their coefficients are polynomials
in alpha, parsed here into ``{exponent: Fraction}`` maps and evaluated at
rational points.  A polynomial identity of degree d in alpha that holds
at d + 1 distinct points holds identically, so each check evaluates at
as many points as the degree of its residual needs.

Each check returns a list of ``(name, ok, detail)`` triples.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

# -- comparison windows -----------------------------------------------------


def _mul(p: dict, q: dict) -> dict:
    """Product of Laurent polynomials in (x, y) as {(ex, ey): coefficient}."""
    out: dict = {}
    for (a, b), c in p.items():
        for (e, f), d in q.items():
            key = (a + e, b + f)
            out[key] = out.get(key, 0) + c * d
    return {k: c for k, c in out.items() if c}


def clearing_polynomial(relation: str, dim: int) -> dict:
    """The clearing polynomial each relation is multiplied by."""
    y_minus_x = {(0, 1): 1, (1, 0): -1}
    if relation == "frt-like":
        return y_minus_x
    if relation == "frt-mixed":
        return _mul(y_minus_x, y_minus_x)
    if relation in ("reflection", "currents"):
        sigma = -1 if dim % 2 else 1
        return _mul({(1, 0): 1, (0, 1): -1}, {(1, 1): 1, (0, 0): -sigma})
    raise ValueError(f"unknown relation {relation!r}")


def _degree(p: dict) -> int:
    """Largest exponent magnitude of either variable."""
    return max(max(abs(a), abs(b)) for a, b in p)


def check_windows(records: list) -> list:
    """Each window is the cutoff minus the degree of the clearing polynomial:
    D-1 for the like-sign exchange relations, D-2 for the others."""
    out = []
    for r in records:
        expected = r["cutoff"] - _degree(clearing_polynomial(r["relation"], r["n"]))
        name = f"window {r['relation']} N={r['n']} D={r['cutoff']}"
        out.append((name, r["window"] == expected, f"window {r['window']}, expected {expected}"))
    return out


# -- extracted tables ---------------------------------------------------------

_SYSTEM = re.compile(r"system: (\d+) rows, (\d+) bracket unknowns, rank (\d+)")


def check_extraction(dim: int, table: dict, checks: list) -> list:
    """Basis of N^2-1 words, (N^2-1)(N^2-2)/2 unknowns, full rank, consistent."""
    size = dim * dim - 1
    unknowns = size * (size - 1) // 2
    status = dict(checks)
    system = [m for m in (_SYSTEM.fullmatch(n) for n, _ in checks) if m]
    out = [(f"extract N={dim} basis", len(table["basis"]) == size,
            f"{len(table['basis'])} basis elements, expected {size}")]
    if not system:
        return out + [(f"extract N={dim} system", False, "no system line in the report")]
    _, got_unknowns, rank = (int(g) for g in system[0].groups())
    out.append((f"extract N={dim} unknowns", got_unknowns == unknowns,
                f"{got_unknowns} unknowns, expected {unknowns}"))
    out.append((f"extract N={dim} rank", rank == unknowns, f"rank {rank} of {unknowns}"))
    out.append((f"extract N={dim} consistent", status.get("consistency") == "pass",
                f"consistency {status.get('consistency')}"))
    return out


_TERM = re.compile(r"[+-]?[^+-]+")


def parse_alpha_poly(text: str) -> dict:
    """Parse a canonical coefficient string in alpha into {exponent: Fraction}."""
    out: dict = {}
    if text.strip() == "0":
        return out
    for piece in _TERM.findall(text.replace(" ", "")):
        coeff = Fraction(-1 if piece[0] == "-" else 1)
        exp = 0
        for factor in piece.lstrip("+-").split("*"):
            if factor == "alpha":
                exp += 1
            elif factor.startswith("alpha^"):
                exp += int(factor[len("alpha^"):])
            else:
                coeff *= Fraction(factor)  # raises on any other symbol
        out[exp] = out.get(exp, 0) + coeff
    return {e: c for e, c in out.items() if c}


class Table:
    """A bracket table with coefficients in Q[alpha], read from its export."""

    def __init__(self, doc: dict):
        self.basis = doc["basis"]
        index = {name: k for k, name in enumerate(self.basis)}
        self.generators = [index[g] for g in doc["generators"]]
        self.words = [None if w is None else (Fraction(w[0]), tuple(w[1]))
                      for w in doc["words"]]
        self.brackets = {}
        for a, b, vec in doc["brackets"]:
            self.brackets[(index[a], index[b])] = {
                index[c]: parse_alpha_poly(coeff) for c, coeff in vec
            }
        self.degree = max((max(p, default=0) for vec in self.brackets.values()
                           for p in vec.values()), default=0)

    def at(self, alpha: Fraction) -> dict:
        """Antisymmetric table {(i, j): {k: value}} at one value of alpha."""
        out: dict = {}
        for (a, b), vec in self.brackets.items():
            val = {}
            for c, p in vec.items():
                v = sum(coeff * alpha ** e for e, coeff in p.items())
                if v:
                    val[c] = v
            if val:
                out[(a, b)] = val
                out[(b, a)] = {c: -v for c, v in val.items()}
        return out


def alpha_points(count: int) -> list:
    return [Fraction(k + 2, 2 * k + 3) for k in range(count)]


def _bracket(table: dict, u: dict, v: dict) -> dict:
    out: dict = {}
    for i, ci in u.items():
        for j, cj in v.items():
            for k, w in table.get((i, j), {}).items():
                out[k] = out.get(k, 0) + ci * cj * w
    return {k: c for k, c in out.items() if c}


def check_jacobi(dim: int, doc: dict) -> list:
    """Jacobi identity on every basis triple, at 2d+1 values of alpha,
    where d is the table's degree in alpha (the residual has degree 2d)."""
    t = Table(doc)
    points = alpha_points(2 * t.degree + 1)
    size = len(t.basis)
    for alpha in points:
        tab = t.at(alpha)
        unit = [{k: 1} for k in range(size)]
        for i, j, k in itertools.combinations(range(size), 3):
            r = _bracket(tab, unit[i], tab.get((j, k), {}))
            for part in (_bracket(tab, unit[j], tab.get((k, i), {})),
                         _bracket(tab, unit[k], tab.get((i, j), {}))):
                for m, c in part.items():
                    r[m] = r.get(m, 0) + c
            if any(r.values()):
                return [(f"jacobi re-check N={dim}", False,
                         f"triple ({t.basis[i]},{t.basis[j]},{t.basis[k]}) at alpha={alpha}")]
    return [(f"jacobi re-check N={dim}", True,
             f"{len(points)} values of alpha, degree {t.degree}")]


def _rank(rows: list, size: int) -> int:
    rows = [[r.get(k, Fraction(0)) for k in range(size)] for r in rows]
    rank = 0
    for col in range(size):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / p[col]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], p)]
        rank += 1
    return rank


def _images(a: Table, b: Table, tab_b: dict, signs) -> list:
    """Images of a's basis under generator i -> signs[i] * generator i of b."""
    gens = [{g: Fraction(s)} for g, s in zip(b.generators, signs)]
    out = []
    for coeff, letters in a.words:
        v = gens[letters[-1] - 1]
        for l in reversed(letters[:-1]):
            v = _bracket(tab_b, gens[l - 1], v)
        out.append({k: coeff * c for k, c in v.items()})
    return out


def _is_hom(a_tab: dict, b_tab: dict, images: list) -> bool:
    size = len(images)
    for i in range(size):
        for j in range(i + 1, size):
            lhs: dict = {}
            for c, w in a_tab.get((i, j), {}).items():
                for k, v in images[c].items():
                    lhs[k] = lhs.get(k, 0) + w * v
            lhs = {k: v for k, v in lhs.items() if v}
            if lhs != _bracket(b_tab, images[i], images[j]):
                return False
    return True


def check_isomorphism(dim: int, extracted: dict, reference: dict) -> list:
    """A sign-graded isomorphism from the extracted table to the explicit
    one: generators map to generators up to sign, words to their values.

    The images have degree at most (L-1)*db in alpha for words of length
    at most L, so the homomorphism residual has degree at most
    max(da + (L-1)*db, (2L-1)*db); full rank at one point is full rank
    over Q(alpha).
    """
    name = f"isomorphism N={dim}"
    a, b = Table(extracted), Table(reference)
    if len(a.basis) != len(b.basis) or any(w is None for w in a.words):
        return [(name, False, "dimensions differ or a basis element has no word")]
    longest = max(len(w[1]) for w in a.words)
    bound = max(a.degree + (longest - 1) * b.degree, (2 * longest - 1) * b.degree)
    points = alpha_points(bound + 1)
    tabs = [(a.at(p), b.at(p)) for p in points]
    for signs in itertools.product((1, -1), repeat=len(a.generators)):
        first_a, first_b = tabs[0]
        images = _images(a, b, first_b, signs)
        if _rank(images, len(b.basis)) != len(b.basis) or not _is_hom(first_a, first_b, images):
            continue
        if all(_is_hom(ta, tb, _images(a, b, tb, signs)) for ta, tb in tabs[1:]):
            return [(name, True, f"generator signs {signs}, {len(points)} values of alpha")]
    return [(name, False, "no sign-graded isomorphism")]


def check_round(ops: list) -> list:
    """All independent checks that apply to one round's operation data."""
    out = []
    windows = [op["data"] for op in ops if op["data"] and "window" in op["data"]]
    out += check_windows(windows)
    for op in ops:
        data = op["data"]
        if not data or "table" not in data:
            continue
        dim = data["n"]
        if data["table"] is None:
            out.append((f"extract N={dim} table", False, "no table"))
            continue
        out += check_extraction(dim, data["table"], data["checks"])
        if "reference" in data:
            out += check_isomorphism(dim, data["table"], data["reference"])
        else:
            out += check_jacobi(dim, data["table"])
    return out
