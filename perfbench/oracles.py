"""Output checkers for the benchmark, written without importing arithcorr.

Each checker takes what the program produced and returns a `Check`: how many
operations it covered, how many of them failed, and a short note per failure.
They check meaning (values, row keys, statuses), not bytes, so fields added to
the JSON reports later do not break them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

# An expected rejection is recorded by its exception class name.
SHIFT_EQUALS = "ShiftEqualsSequence"
EQUAL_SEQUENCES = "EqualSequences"


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(note)

    def add(self, other: "Check") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes[: max(0, 20 - len(self.notes))])


def closed_form_distribution(m: int) -> dict[int, int]:
    """+-(2^k - 1) with multiplicity 2^(m-k-1), for k = 1..m-1."""
    dist = {}
    for k in range(1, m):
        dist[(1 << k) - 1] = dist[1 - (1 << k)] = 1 << (m - k - 1)
    return dist


# --- acorr --all --method all --------------------------------------------


def check_acorr_all(rc: int, doc: dict, m: int) -> Check:
    """One operation per tau row of an `acorr --all --method all --json` report.

    A row fails when its tau is out of place, a column is missing, or the
    three columns differ.  Rows that pass that test must together carry the
    closed-form distribution; each row in excess of it counts as failed.
    """
    taus = (1 << m) - 2  # tau = 1..n-1 for period n = 2^m - 1
    check = Check(attempted=taus)
    rows = doc.get("rows") if isinstance(doc, dict) else None
    if not isinstance(rows, list):
        check.fail(taus, "no rows in report")
        return check
    good = []
    for i in range(taus):
        if i >= len(rows):
            check.fail(taus - i, f"{taus - i} rows missing after tau={i}")
            break
        row = rows[i]
        values = [row.get(k) for k in ("direct", "blocks", "closed")] if isinstance(row, dict) else []
        if not isinstance(row, dict) or row.get("tau") != i + 1:
            check.fail(1, f"row {i}: expected tau={i + 1}, got {row!r:.60}")
        elif None in values or len(set(values)) != 1:
            check.fail(1, f"tau={i + 1}: columns differ {values}")
        else:
            good.append(values[0])
    if len(rows) > taus:
        check.fail(1, f"{len(rows) - taus} extra rows")
    expected = closed_form_distribution(m)
    excess = sum(max(0, c - expected.get(v, 0)) for v, c in Counter(good).items())
    if excess:
        check.fail(excess, f"{excess} rows outside the closed-form distribution")
    if check.failed == 0 and (rc != 0 or doc.get("status") != "pass"):
        check.fail(1, f"exit {rc}, status {doc.get('status')!r} with every row passing")
    check.failed = min(check.failed, taus)
    return check


# --- verify --json --------------------------------------------------------

# Mismatch records name a sub-check; this maps each to the report row it
# belongs to.
_ROW_OF_MISMATCH = {
    "classical": "lemma1",
    "pattern": "lemma1",
    "count_sums": "counting",
    "closed_count": "counting",
    "weighted_sum": "counting",
}


def expected_verify_rows(lo: int, hi: int) -> list[tuple[str, int]]:
    """(check, m) rows `verify --m-range lo..hi` reports with default polynomials."""
    rows = []
    for m in range(lo, hi + 1):
        rows.append(("three_way", m))
        rows.append(("lemma1", m))
        if m <= 8:
            rows.append(("counting", m))
        rows.append(("distribution", m))
    return rows


def check_verify(rc: int, doc: dict, lo: int, hi: int) -> Check:
    """One operation per expected (check, m) row: present, `pass`, no mismatch."""
    expected = expected_verify_rows(lo, hi)
    check = Check(attempted=len(expected))
    rows = doc.get("rows", []) if isinstance(doc, dict) else []
    mismatches = doc.get("mismatches", ["no mismatches field"]) if isinstance(doc, dict) else ["not a report"]
    status = {}
    for row in rows if isinstance(rows, list) else []:
        if isinstance(row, dict):
            status.setdefault((row.get("check"), row.get("m")), []).append(row.get("status"))
    bad = set()
    for key in expected:
        got = status.get(key)
        if got != ["pass"]:
            bad.add(key)
            check.notes.append(f"{key[0]} m={key[1]}: {got or 'missing'}")
    for miss in mismatches if isinstance(mismatches, list) else [mismatches]:
        key = (
            (_ROW_OF_MISMATCH.get(miss.get("check"), miss.get("check")), miss.get("m"))
            if isinstance(miss, dict)
            else None
        )
        if key not in expected:
            key = ("unattributed", len(bad))
        if key not in bad:
            bad.add(key)
            check.notes.append(f"mismatch {miss!r:.80}")
    check.failed = min(len(expected), len(bad))
    if check.failed == 0 and (rc != 0 or doc.get("status") != "pass"):
        check.fail(1, f"exit {rc}, status {doc.get('status')!r} with every row passing")
    return check


# --- random pairs ---------------------------------------------------------


def bits_value(bits) -> int:
    """The integer whose binary digit i is bits[i]."""
    v = 0
    for i, b in enumerate(bits):
        if b:
            v |= 1 << i
    return v


def rotate(bits, t: int) -> list:
    return list(bits[t:]) + list(bits[:t])


def direct_corr(a_bits, b_bits):
    """n - 2*w(d) for d = sigma(a) - sigma(b) > 0, 2*w(-d) - n for d < 0, None for d = 0."""
    n = len(a_bits)
    d = bits_value(a_bits) - bits_value(b_bits)
    if d == 0:
        return None
    return n - 2 * bin(d).count("1") if d > 0 else 2 * bin(-d).count("1") - n


def classical_corr(bits, t: int) -> int:
    """n minus twice the Hamming distance between bits and its t-rotation."""
    return len(bits) - 2 * sum(x != y for x, y in zip(bits, rotate(bits, t)))


def cyclic_pattern_count(bits, pattern) -> int:
    n, l = len(bits), len(pattern)
    return sum(all(bits[(i + j) % n] == pattern[j] for j in range(l)) for i in range(n))


@dataclass(frozen=True)
class PairCase:
    """One random_pairs case: the generated bits and the parameters of each call."""

    a: tuple
    b: tuple
    t: int        # shift of a, and tau of arithmetic_autocorr(a, t)
    u: int        # tau of arithmetic_autocorr(a.shift(t), u)
    c: int        # tau of classical_autocorr(a, c)
    pattern: tuple


def _autocorr_or_reject(bits, tau):
    value = direct_corr(bits, rotate(bits, tau))
    return ("reject", SHIFT_EQUALS) if value is None else value


def expected_pair_outputs(case: PairCase) -> tuple:
    """What the five library calls of one case must return, in call order."""
    shifted = rotate(case.a, case.t)
    blocks = direct_corr(case.a, case.b)
    return (
        _autocorr_or_reject(case.a, case.t),
        _autocorr_or_reject(shifted, case.u),
        ("reject", EQUAL_SEQUENCES) if blocks is None else blocks,
        classical_corr(case.a, case.c),
        cyclic_pattern_count(case.a, case.pattern),
    )


def check_pairs(outputs: list, expected: list) -> Check:
    """One operation per case; a case fails if any of its outputs differs."""
    check = Check(attempted=len(expected))
    if len(outputs) != len(expected):
        check.fail(abs(len(expected) - len(outputs)), f"{len(outputs)} outputs for {len(expected)} cases")
    for i, (got, want) in enumerate(zip(outputs, expected)):
        if got != want:
            check.fail(1, f"case {i}: got {got}, expected {want}")
    check.failed = min(check.failed, check.attempted)
    return check
