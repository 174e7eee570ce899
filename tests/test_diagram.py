"""Grid diagrams, simplification, Alexander, determinant, Kauffman bracket."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import latticeknot as lk
from latticeknot import LaurentPolynomial as LP
from latticeknot import dataset, diagram
from latticeknot.diagram import _assemble, _bareiss_det, _overpass_minor
from latticeknot.laurent import canonicalize

from conftest import div_exact, faces, mirror, star_in_order, torus_alexander

TREFOIL = LP.from_coeffs([1, -1, 1])
FIG8 = LP.from_coeffs([1, -3, 1])


def determinant(D):
    """|Alexander at t = -1| of the simplified diagram, as the CLI reports it."""
    return abs(lk.alexander(lk.simplify_diagram(D)).evaluate(-1))


class TestArcToPlanar:
    def test_doubled_pair_no_crossings(self):
        D = lk.arc_to_planar(lk.validate([[1, 2], [1, 2]]))
        assert D.n == 0
        assert lk.alexander(D) == LP.one()

    def test_pentagram_trefoil(self, p5):
        D = lk.arc_to_planar(p5)
        assert lk.alexander(D) == TREFOIL

    def test_figure8_determinant(self, p6):
        assert determinant(lk.arc_to_planar(p6)) == 5

    def test_diagrams_check_clean(self):
        # construction raises unless each crossing is passed once over and once under
        rng = random.Random(40)
        for _ in range(50):
            lk.arc_to_planar(lk.random_presentation(rng.randint(2, 9), rng))

    def test_euler_face_count(self):
        rng = random.Random(41)
        for _ in range(50):
            D = lk.arc_to_planar(lk.random_presentation(rng.randint(5, 9), rng))
            if D.n:
                assert len(faces(D)) == D.n + 2


class TestSimplify:
    def test_preserves_alexander(self):
        rng = random.Random(42)
        for _ in range(30):
            D = lk.arc_to_planar(lk.random_presentation(rng.randint(5, 8), rng))
            plain = lk.alexander(D)
            assert lk.alexander(lk.simplify_diagram(D)) == plain

    def test_shrinks_or_keeps(self):
        rng = random.Random(43)
        for _ in range(30):
            D = lk.arc_to_planar(lk.random_presentation(rng.randint(5, 9), rng))
            S = lk.simplify_diagram(D)
            assert S.n <= D.n

    def test_idempotent_on_grid_and_projected_diagrams(self):
        # simplify reassembles crossings from gauss events and stored signs;
        # a second pass must reproduce the first exactly, signs included
        rng = random.Random(44)
        for _ in range(20):
            P = lk.random_presentation(rng.randint(5, 9), rng)
            poly, _ = lk.construct_auto(P, check_invariant=False)
            for D in (lk.arc_to_planar(P), lk.project_polygon(poly)):
                S = lk.simplify_diagram(D)
                again = lk.simplify_diagram(S)
                assert again.pd == S.pd
                assert again.gauss == S.gauss

    def test_unknot_collapses(self):
        # trivial a=3 cycle: three arcs, unknotted
        D = lk.arc_to_planar(lk.validate([[1, 2], [2, 3], [1, 3]]))
        assert lk.simplify_diagram(D).n == 0


def reference_simplify_diagram(d):
    """Reference: reassemble and walk every face after each kink or bigon."""
    events = list(d.gauss)
    signs = dict(enumerate(d.signs))
    while events:
        total = len(events)
        kink = next(
            (ev[0] for j, ev in enumerate(events) if ev[0] == events[(j + 1) % total][0]), None
        )
        if kink is not None:
            events = [ev for ev in events if ev[0] != kink]
            continue
        current = _assemble(events, signs)
        old_ids = list(dict.fromkeys(cid for cid, _ in events))
        reducible = None
        for face in faces(current):
            if len(face) != 2:
                continue
            (c1, s1), (c2, s2) = face
            # slot parity is the role (even under); the face walk joins slot s1
            # of c1 to slot s2-1 of c2 and s2 to s1-1 by an edge, so differing
            # parities put one strand over at both corners, the other under
            if c1 != c2 and s1 % 2 != s2 % 2:
                reducible = (old_ids[c1], old_ids[c2])
                break
        if reducible is None:
            break
        events = [ev for ev in events if ev[0] not in reducible]
    return _assemble(events, signs)


def reference_arc_of_edge(d):
    """Wirtinger arc id (1..n) for each edge; arcs break at under passages."""
    n = d.n
    label = {}
    cur = 0
    for j, (_, passes_over) in enumerate(d.gauss, start=1):
        if not passes_over:
            cur += 1
        label[j] = cur
    for j in label:
        if label[j] == 0:
            label[j] = n
    return label


def reference_wirtinger_minor(d):
    """Reference: label every edge with its arc, then fill one row per crossing."""
    n = d.n
    arc = reference_arc_of_edge(d)
    # passage j leaves on edge j and enters on edge j - 1, edge 2n before passage 1
    passage = {(ci, over): j for j, (ci, over) in enumerate(d.gauss, start=1)}
    one = LP.one()
    t = LP.t_power(1)
    rows = [[LP.zero() for _ in range(n)] for _ in range(n)]
    for r, sign in enumerate(d.signs):
        jo, ju = passage[r, True], passage[r, False]
        o = arc[jo - 1 or 2 * n] - 1
        assert arc[jo] - 1 == o, "over passage splits a Wirtinger arc"
        ui = arc[ju - 1 or 2 * n] - 1
        uo = arc[ju] - 1
        if sign > 0:
            rows[r][o] = rows[r][o] + (one - t)
            rows[r][ui] = rows[r][ui] + t
            rows[r][uo] = rows[r][uo] - one
        else:
            rows[r][o] = rows[r][o] + (t - one)
            rows[r][ui] = rows[r][ui] + one
            rows[r][uo] = rows[r][uo] - t
    return [row[: n - 1] for row in rows[: n - 1]]


def sparse_rows(mat):
    """The sparse rows {column: {exponent: coeff}} of a dense LaurentPolynomial matrix."""
    return [{j: dict(p.items()) for j, p in enumerate(row) if not p.is_zero} for row in mat]


def grid_and_output(a, seed):
    P = lk.random_presentation(a, random.Random(seed))
    poly, _ = lk.construct_auto(P, check_invariant=False)
    return lk.arc_to_planar(P), lk.project_polygon(poly)


class TestGaussWordStages:
    @pytest.mark.parametrize("a", range(5, 25))
    def test_simplify_and_minor_match_face_walk_reference(self, a):
        for D in grid_and_output(a, 7000 + a):
            S, R = lk.simplify_diagram(D), reference_simplify_diagram(D)
            assert S.n == R.n
            assert reference_simplify_diagram(S).n == S.n
            assert lk.simplify_diagram(R).n == R.n
            assert lk.alexander(S) == lk.alexander(R)
            for d in (D, S, R):
                want = canonicalize(sparse_bareiss_det(reference_wirtinger_minor(d)))
                assert lk.alexander(d) == want

    @pytest.mark.parametrize("a", [48, 64])
    def test_reach_at_large_a(self, a):
        grid, output = grid_and_output(a, 7000 + a)
        for D in (grid, output):
            S = lk.simplify_diagram(D)
            assert S.n <= D.n
            assert reference_simplify_diagram(S).n == S.n
        # the input side: a grid diagram's vertical strands are all over, so
        # its overpass minor has at most a - 1 rows, simplified or not
        S = lk.simplify_diagram(grid)
        assert len(_overpass_minor(S)) <= len(_overpass_minor(grid)) <= a - 1
        poly = lk.alexander(S)
        assert lk.alexander(grid) == poly
        assert abs(poly.evaluate(1)) == 1
        assert poly.coeff_list() == poly.coeff_list()[::-1]
        P = lk.random_presentation(a, random.Random(7000 + a))
        _, cert = lk.construct_auto(P)
        assert cert.invariant_match.status == "matched"


@st.composite
def kinked_diagrams(draw):
    """Unsimplified grid diagrams with 2..5 Reidemeister I kinks of either sign
    spliced into the Gauss word, each as two consecutive passages."""
    P = lk.random_presentation(draw(st.integers(5, 9)), random.Random(draw(st.integers(0, 2**16))))
    D = lk.arc_to_planar(P)
    events = list(D.gauss)
    signs = dict(enumerate(D.signs))
    for k in range(draw(st.integers(2, 5))):
        over = draw(st.booleans())
        j = draw(st.integers(0, len(events)))
        events[j:j] = [(("kink", k), over), (("kink", k), not over)]
        signs["kink", k] = draw(st.sampled_from([1, -1]))
    return _assemble(events, signs)


class TestSparseMinor:
    @settings(max_examples=100, deadline=None)
    @given(kinked_diagrams())
    def test_kinks_emit_only_nonzero_entries(self, D):
        assert D.n >= 2
        # b over-runs: over passages that follow an under passage, cyclically
        b = sum(over and not D.gauss[j - 1][1] for j, (_, over) in enumerate(D.gauss))
        rows = _overpass_minor(D)
        assert len(rows) == b - 1
        for r, row in enumerate(rows):
            for j, entry in row.items():
                assert 0 <= j < b - 1
                assert entry and all(entry.values())
            # at t = 1 every relation reads x_{r+1} = x_r: bidiagonal, ones on the diagonal
            at_one = {j: c for j, entry in row.items() if (c := sum(entry.values()))}
            assert at_one == {j: c for j, c in ((r, 1), (r + 1, -1)) if j < b - 1}
        assert _bareiss_det(rows).evaluate(1) in (1, -1)
        want = canonicalize(sparse_bareiss_det(reference_wirtinger_minor(D)))
        assert lk.alexander(D) == want
        assert lk.alexander(lk.simplify_diagram(D)) == want

    def test_trefoil_rows_follow_the_crossing_signs(self, p5):
        # U0 O1 U2 O0 U1 O2, all crossings positive: the word starts at O1, the
        # over-runs are O1, O0, O2 and the under-runs pass under c2, c1, c0, so
        # x1 = t x0 + (1 - t) x2 and x2 = t x1 + (1 - t) x0; column 2 is dropped
        D = lk.arc_to_planar(p5)
        assert D.gauss == ((0, False), (1, True), (2, False), (0, True), (1, False), (2, True))
        assert D.signs == (1, 1, 1)
        assert _overpass_minor(D) == [{1: {0: -1}, 0: {1: 1}}, {1: {1: 1}, 0: {0: 1, 1: -1}}]
        # the mirror has every sign -1, so every t becomes 1/t: O0, O2, O1
        # over c1, c0, c2 give x1 = x0/t + (1 - 1/t) x2 and x2 = x1/t + (1 - 1/t) x0
        assert _overpass_minor(mirror(D)) == [
            {1: {0: -1}, 0: {-1: 1}},
            {1: {-1: 1}, 0: {0: 1, -1: -1}},
        ]


class TestAlexander:
    def test_torus_formula_oracle_p5(self, p5):
        assert lk.alexander(lk.arc_to_planar(p5)) == torus_alexander(3, 2)

    def test_torus_formula_oracle_p7(self, p7):
        got = lk.alexander(lk.arc_to_planar(p7))
        assert got == torus_alexander(4, 3)
        assert got == LP.from_coeffs([1, -1, 0, 1, 0, -1, 1])

    def test_torus_formula_oracle_t54(self):
        P = star_in_order(9)
        assert lk.alexander(lk.arc_to_planar(P)) == torus_alexander(5, 4)

    @pytest.mark.parametrize("a", [11, 13, 15, 17, 19, 21, 23, 25, 41])
    def test_torus_formula_oracle_past_a9(self, a):
        n = (a - 1) // 2
        assert lk.alexander(lk.arc_to_planar(star_in_order(a))) == torus_alexander(n + 1, n)

    def test_mirror_insensitive(self):
        rng = random.Random(44)
        for _ in range(20):
            D = lk.arc_to_planar(lk.random_presentation(rng.randint(5, 8), rng))
            assert lk.alexander(mirror(D)) == lk.alexander(D)

    def test_palindromic_coefficients(self):
        rng = random.Random(45)
        for _ in range(30):
            coeffs = lk.alexander(
                lk.arc_to_planar(lk.random_presentation(rng.randint(5, 9), rng))
            ).coeff_list()
            assert coeffs == coeffs[::-1]

    def test_value_at_1_is_unit(self):
        rng = random.Random(46)
        for _ in range(30):
            p = lk.alexander(lk.arc_to_planar(lk.random_presentation(rng.randint(5, 9), rng)))
            assert abs(p.evaluate(1)) == 1


def cofactor_det(mat):
    """Reference determinant by expansion along the first row."""
    if not mat:
        return LP.one()
    total = LP.zero()
    for j, entry in enumerate(mat[0]):
        term = entry * cofactor_det([row[:j] + row[j + 1 :] for row in mat[1:]])
        total = total - term if j % 2 else total + term
    return total


def sparse_poly(rng):
    if rng.random() < 0.4:
        return LP.zero()
    return LP({rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(rng.randint(1, 3))})


class TestBareiss:
    def random_matrix(self, rng, size):
        return [[sparse_poly(rng) for _ in range(size)] for _ in range(size)]

    def test_matches_cofactor_expansion(self):
        rng = random.Random(48)
        for size in range(6):
            for _ in range(15):
                mat = self.random_matrix(rng, size)
                assert _bareiss_det(sparse_rows(mat)) == cofactor_det(mat)

    def test_zero_leading_pivot_swaps_rows(self):
        rng = random.Random(49)
        for size in range(2, 6):
            for _ in range(10):
                mat = self.random_matrix(rng, size)
                mat[0][0] = LP.zero()
                mat[1][0] = LP.t_power(-1) - LP.one()  # a nonzero pivot below
                want = cofactor_det(mat)
                assert _bareiss_det(sparse_rows(mat)) == want
                assert _bareiss_det(sparse_rows(mat[1:2] + mat[:1] + mat[2:])) == -want

    def test_singular_is_zero(self):
        rng = random.Random(50)
        for size in range(2, 6):
            for _ in range(10):
                mat = self.random_matrix(rng, size)
                zero_column = [[LP.zero()] + row[1:] for row in mat]
                multiple = LP({1: 2, -1: -1})
                last_row_scaled = mat[:-1] + [[multiple * e for e in mat[0]]]
                for singular in (zero_column, last_row_scaled):
                    assert cofactor_det(singular).is_zero
                    assert _bareiss_det(sparse_rows(singular)).is_zero


laurent_entries = st.one_of(
    st.just(LP.zero()),
    st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), min_size=1, max_size=3).map(LP),
)


@st.composite
def sparse_matrices(draw):
    """Square matrices of size 0..6 with many zero entries; some get a zero
    row, a zero column or a repeated row."""
    size = draw(st.integers(0, 6))
    mat = [[draw(laurent_entries) for _ in range(size)] for _ in range(size)]
    if size >= 2:
        i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        kind = draw(st.sampled_from(["plain", "zero row", "zero column", "repeated row"]))
        if kind == "zero row":
            mat[i] = [LP.zero()] * size
        elif kind == "zero column":
            for row in mat:
                row[j] = LP.zero()
        elif kind == "repeated row" and i != j:
            mat[i] = mat[j][:]
    return mat


def odd_by_inversions(perm):
    return sum(x > y for k, x in enumerate(perm) for y in perm[k + 1 :]) % 2 == 1


class TestMarkowitzOrder:
    @settings(max_examples=150, deadline=None)
    @given(sparse_matrices())
    def test_matches_cofactor_expansion(self, mat):
        assert _bareiss_det(sparse_rows(mat)) == cofactor_det(mat)

    @settings(max_examples=100, deadline=None)
    @given(sparse_matrices(), st.randoms(use_true_random=False))
    def test_permuting_rows_and_columns_flips_the_sign_by_parity(self, mat, rng):
        # the pivot order permutes rows and columns too, so the two parities
        # it multiplies into the determinant must cancel against these
        n = len(mat)
        rows, cols = list(range(n)), list(range(n))
        rng.shuffle(rows)
        rng.shuffle(cols)
        permuted = [[mat[i][j] for j in cols] for i in rows]
        want = cofactor_det(mat)
        if odd_by_inversions(rows) != odd_by_inversions(cols):
            want = -want
        assert _bareiss_det(sparse_rows(permuted)) == want


def sparse_bareiss_det(mat):
    """Reference: fraction-free Bareiss directly on LaurentPolynomial entries."""
    n = len(mat)
    if n == 0:
        return LP.one()
    m = [row[:] for row in mat]
    sign = 1
    prev = LP.one()
    for k in range(n - 1):
        if m[k][k].is_zero:
            swap = next((i for i in range(k + 1, n) if not m[i][k].is_zero), None)
            if swap is None:
                return LP.zero()
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = div_exact(m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)
        prev = m[k][k]
    return m[n - 1][n - 1] if sign > 0 else -m[n - 1][n - 1]


def sylvester_hadamard(size):
    h = [[1]]
    while len(h) < size:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


class TestKroneckerBareiss:
    @pytest.mark.parametrize("a", [12, 16, 20, 24])
    def test_matches_sparse_reference_on_wirtinger_minors(self, a):
        # the first two seeded presentations whose simplified grid diagram
        # is knotted; random ones at these sizes are often unknots
        rng = random.Random(9000 + a)
        checked = 0
        while checked < 2:
            P = lk.random_presentation(a, rng)
            if lk.simplify_diagram(lk.arc_to_planar(P)).n < 3:
                continue
            poly, _ = lk.construct_auto(P, check_invariant=False)
            for D in (lk.arc_to_planar(P), lk.project_polygon(poly)):
                d = lk.simplify_diagram(D)
                if d.n > 1:
                    mat = reference_wirtinger_minor(d)
                    want = sparse_bareiss_det(mat)
                    assert _bareiss_det(sparse_rows(mat)) == want
                    assert lk.alexander(d) == canonicalize(want)
            checked += 1

    @pytest.mark.parametrize("size", [2, 4, 8])
    def test_hadamard_bound_is_tight(self, size):
        # |det| of a Sylvester-Hadamard matrix is size**(size/2) = isqrt(H2),
        # so the decoded coefficient sits at the edge of the balanced digits
        h = sylvester_hadamard(size)
        swapped = h[1:2] + h[:1] + h[2:]  # the other sign of the determinant
        peak = size ** (size // 2)
        rng = random.Random(51 + size)
        row_exps = [rng.randint(-3, 3) for _ in range(size)]
        col_exps = [rng.randint(-3, 3) for _ in range(size)]
        for negate, base in ((1, h), (-1, h), (1, swapped), (-1, swapped)):
            plain = [[LP({0: negate * x}) for x in row] for row in base]
            by_rows = [[LP({row_exps[i]: negate * x}) for x in row] for i, row in enumerate(base)]
            by_cols = [[LP({col_exps[j]: negate * x}) for j, x in enumerate(row)] for row in base]
            want = _bareiss_det(sparse_rows(plain))
            assert want in (LP({0: peak}), LP({0: -peak}))
            assert want == sparse_bareiss_det(plain)
            assert _bareiss_det(sparse_rows(by_rows)) == want.shifted(sum(row_exps))
            assert _bareiss_det(sparse_rows(by_cols)) == want.shifted(sum(col_exps))


class TestDeterminant:
    def test_unknot_1(self):
        assert determinant(lk.arc_to_planar(lk.validate([[1, 2], [1, 2]]))) == 1

    def test_trefoil_3(self, p5):
        assert determinant(lk.arc_to_planar(p5)) == 3

    def test_odd_always(self):
        rng = random.Random(47)
        for _ in range(40):
            d = determinant(
                lk.arc_to_planar(lk.random_presentation(rng.randint(5, 9), rng))
            )
            assert d % 2 == 1


class TestJones:
    def test_unknot_1(self):
        assert lk.jones_kauffman(lk.arc_to_planar(lk.validate([[1, 2], [1, 2]]))) == LP.one()

    def test_trefoil_textbook_pair(self, p5):
        D = lk.simplify_diagram(lk.arc_to_planar(p5))
        j = lk.jones_kauffman(D).coeff_list()
        jm = lk.jones_kauffman(mirror(D)).coeff_list()
        left = [-1, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 1]
        right = [-1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1]
        assert sorted([j, jm]) == sorted([left, right])
        assert j != jm

    def test_invariant_under_simplification(self, p6):
        D = lk.arc_to_planar(p6)
        assert lk.jones_kauffman(D) == lk.jones_kauffman(lk.simplify_diagram(D))

    def test_cap_exceeded(self):
        D = lk.arc_to_planar(star_in_order(11))
        assert D.n == 24
        with pytest.raises(lk.CrossingCapExceededError):
            lk.jones_kauffman(D)

    def test_amphichiral_figure8(self, p6):
        D = lk.simplify_diagram(lk.arc_to_planar(p6))
        assert lk.jones_kauffman(D) == lk.jones_kauffman(mirror(D))


class TestPDCode:
    def test_trefoil_pd_text(self, p5):
        D = lk.simplify_diagram(lk.arc_to_planar(p5))
        lines = D.pd_code_text().splitlines()
        assert len(lines) == D.n
        for line in lines:
            assert line.startswith("X(") and line.endswith(")")
            labels = [int(v) for v in line[2:-1].split(",")]
            assert all(1 <= v <= 2 * D.n for v in labels)
        # every edge label appears exactly twice across the code
        counts = {}
        for line in lines:
            for v in line[2:-1].split(","):
                counts[v] = counts.get(v, 0) + 1
        assert set(counts.values()) == {2}

    def test_mirror_flips_signs(self, p5):
        D = lk.arc_to_planar(p5)
        M = mirror(D)
        assert list(M.signs) == [-s for s in D.signs]
        assert mirror(M) == D


# sha256 of the lines the test below joins; it moves when a PD code or Jones bracket does
DATASET_DIAGRAMS_SHA256 = "eaa7358b1ff272defc0c6c49ea0e51765afcd1b48c72dcfde99ee04cb3bb7cb6"


def test_dataset_pd_codes_and_jones_match_pinned_digest():
    """For each bundled knot, the PD codes of the grid diagram and of the
    auto-built polygon's projection, each before and after simplification,
    and the Jones bracket of each simplified diagram with at most 10
    crossings (20 of them); the bench digests cover neither grid-side PD
    codes nor Jones."""
    lines = []
    jones = 0
    for name in dataset.names():
        P = dataset.get(name).arcs
        poly, _ = lk.construct_auto(P, check_invariant=False)
        for D in (lk.arc_to_planar(P), lk.project_polygon(poly)):
            S = lk.simplify_diagram(D)
            lines += [name, D.pd_code_text(), S.pd_code_text()]
            if S.n <= 10:
                jones += 1
                lines.append(repr(lk.jones_kauffman(S).coeff_list()))
    assert jones == 20
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DATASET_DIAGRAMS_SHA256


def reference_assemble(events, signs):
    """Reference: each key's PD tuple from its sorted passages, as (pd, gauss,
    signs); edge j follows event j and edge 2n enters event 1."""
    total = len(events)
    passages = {}
    for j, (key, over) in enumerate(events, start=1):
        passages.setdefault(key, []).append((over, j))
    pd = []
    for key, ps in passages.items():
        assert len(ps) == 2 and ps[0][0] != ps[1][0]
        (_, ju), (_, jo) = sorted(ps)
        over_in = jo - 1 if jo > 1 else total
        under_in = ju - 1 if ju > 1 else total
        # counterclockwise from the incoming under strand; the over strand
        # runs left to right across it at a positive crossing
        if signs[key] > 0:
            pd.append((under_in, over_in, ju, jo))
        else:
            pd.append((under_in, jo, ju, over_in))
    index_of = {key: k for k, key in enumerate(passages)}
    gauss = tuple((index_of[key], over) for key, over in events)
    return tuple(pd), gauss, tuple(signs[key] for key in passages)


def reference_mirror(pd, gauss, signs):
    """Swapping the strands' roles keeps each crossing's counterclockwise cycle
    and starts it at the old incoming over strand: slot 1 of a positive
    crossing, slot 3 of a negative one."""
    flipped = tuple(p[1:] + p[:1] if s > 0 else p[3:] + p[:3] for p, s in zip(pd, signs))
    return flipped, tuple((ci, not over) for ci, over in gauss), tuple(-s for s in signs)


def assert_matches_reference(d, pd, gauss, signs):
    assert d.pd == pd
    assert d.pd_code_text() == "\n".join("X({},{},{},{})".format(*p) for p in pd)
    assert d.gauss == gauss
    assert d.signs == signs


class TestStoredGaussWord:
    @pytest.mark.parametrize("a", [*range(5, 25), 48, 64])
    def test_derived_crossings_match_reference_assembly(self, a, monkeypatch):
        # every _assemble call made while building the grid and projected
        # diagrams and simplifying them is replayed through the reference
        calls = []
        real = diagram._assemble

        def spy(events, signs):
            d = real(events, signs)
            calls.append((list(events), signs, d))
            return d

        monkeypatch.setattr(diagram, "_assemble", spy)
        for D in grid_and_output(a, 7100 + a):
            lk.simplify_diagram(D)
        assert len(calls) == 4
        for events, signs, d in calls:
            reference = reference_assemble(events, signs)
            assert_matches_reference(d, *reference)
            assert_matches_reference(mirror(d), *reference_mirror(*reference))
            assert mirror(mirror(d)) == d

    @pytest.mark.parametrize(
        "events",
        [
            [("a", True), ("b", False), ("a", False), ("b", True), ("a", True), ("c", False)],
            [("a", True), ("b", False), ("a", True), ("b", True)],
            [("a", True), ("b", False), ("b", True), ("c", False)],
        ],
        ids=["passed three times", "passed over twice", "passed once"],
    )
    def test_assemble_rejects_a_key_not_passed_once_over_and_once_under(self, events):
        match = "each crossing must be passed once over and once under"
        with pytest.raises(lk.InternalInvariantError, match=match):
            _assemble(events, dict.fromkeys("abc", 1))

    def test_check_flags_a_crossing_passed_over_twice(self):
        with pytest.raises(lk.InternalInvariantError, match="passed once over and once under"):
            lk.PlanarDiagram(((0, True), (1, False), (0, True), (1, True)), (1, -1))

    @pytest.mark.parametrize(
        "gauss",
        [((0, True), (0, False), (1, True)), ((0, True), (-1, False))],
        ids=["index past n", "negative index"],
    )
    def test_construction_rejects_a_crossing_index_out_of_range(self, gauss):
        # _assemble numbers crossings from 0, so only a direct construction makes these
        with pytest.raises(lk.InternalInvariantError, match="passed once over and once under"):
            lk.PlanarDiagram(gauss, (1,))

    def test_certify_path_builds_no_crossing(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a PD code was derived on the certify path")

        monkeypatch.setattr(diagram.PlanarDiagram, "pd", property(refuse))
        items = [dataset.get(name).arcs for name in dataset.names()]
        items += [
            lk.random_presentation(a, random.Random(1000 * a + s)) for a in range(12, 21) for s in (0, 1)
        ]
        for P in items:
            _, cert = lk.construct_auto(P)
            assert cert.invariant_match.status == "matched"
