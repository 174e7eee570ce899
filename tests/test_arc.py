"""Arc presentation operations: validation, rotations, dual, star analysis."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import latticeknot as lk
from latticeknot import PresentationError
from latticeknot.errors import InternalInvariantError

from conftest import arc_presentations, random_star_presentation, star_in_order, star_presentations


class TestModStar:
    def test_modulus_replaces_zero(self):
        assert lk.mod_star(10, 5) == 5

    def test_ordinary_residue(self):
        assert lk.mod_star(7, 5) == 2

    def test_zero_maps_to_modulus(self):
        assert lk.mod_star(0, 3) == 3

    def test_range_and_congruence(self):
        rng = random.Random(0)
        for _ in range(200):
            x, y = rng.randint(-50, 50), rng.randint(1, 12)
            r = lk.mod_star(x, y)
            assert 1 <= r <= y
            assert (r - x) % y == 0

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            lk.mod_star(1, 0)


def cycle_cover_oracle(pairs):
    """Brute force: does the pairing form one cycle through all indices?"""
    a = len(pairs)
    incident = {i: [] for i in range(1, a + 1)}
    for e, (i, j) in enumerate(pairs):
        incident[i].append(e)
        incident[j].append(e)
    if any(len(v) != 2 for v in incident.values()):
        return False
    seen = set()
    vertex, edge = 1, incident[1][0]
    while edge not in seen:
        seen.add(edge)
        i, j = pairs[edge]
        vertex = j if vertex == i else i
        rest = [e for e in incident[vertex] if e not in seen]
        if not rest:
            break
        edge = rest[0]
    return len(seen) == a


def reference_validate(pairs):
    """Every violation of a list of integer pairs, by the earlier algorithm.

    Index checks page by page, then degrees, then a walk that marks each
    arc seen and takes any unseen arc at each binding.
    """
    a = len(pairs)
    if a < 2:
        return [("binding_degree", f"need at least 2 arcs, got {a}")]
    violations = []
    for p, (i, j) in enumerate(pairs, start=1):
        for idx in (i, j):
            if not 1 <= idx <= a:
                violations.append(("index_out_of_range", f"page {p}: index {idx} outside 1..{a}"))
        if i == j:
            violations.append(("degenerate_arc", f"page {p}: arc {i},{j} has equal ends"))
    degree = {i: 0 for i in range(1, a + 1)}
    for pair in pairs:
        for idx in pair:
            if idx in degree:
                degree[idx] += 1
    for i, d in sorted(degree.items()):
        if d != 2:
            violations.append(("binding_degree", f"index {i} used {d} times, expected 2"))
    if not violations:
        incident = {i: [] for i in range(1, a + 1)}
        for e, (i, j) in enumerate(pairs):
            incident[i].append(e)
            incident[j].append(e)
        seen, vertex, edge = set(), 1, incident[1][0]
        for _ in range(a):
            seen.add(edge)
            i, j = pairs[edge]
            vertex = j if vertex == i else i
            rest = [e for e in incident[vertex] if e not in seen]
            if not rest:
                break
            edge = rest[0]
        if len(seen) != a:
            violations.append(
                ("disconnected", f"pairing splits into cycles; walk covered {len(seen)} of {a} arcs")
            )
    return violations


@st.composite
def raw_pairings(draw):
    """Pairs on a in 0..9 arcs: arbitrary indices in -1..a+1, or a cover of
    1..a by cycles (a 2-cycle is a doubled pair), possibly with one index
    changed; pages shuffled and each pair in either order."""
    a = draw(st.integers(0, 9))
    index = st.integers(-1, a + 1)
    if a < 2 or draw(st.booleans()):
        return draw(st.lists(st.lists(index, min_size=2, max_size=2), min_size=a, max_size=a))
    order = draw(st.permutations(range(1, a + 1)))
    pairs, start = [], 0
    while start < a:
        size = draw(st.integers(2, a - start))
        if a - start - size == 1:  # a single binding cannot close a cycle
            size += 1
        block = order[start:start + size]
        pairs += [[block[k], block[(k + 1) % size]] for k in range(size)]
        start += size
    pairs = [pair if draw(st.booleans()) else pair[::-1] for pair in draw(st.permutations(pairs))]
    if draw(st.booleans()):
        pairs[draw(st.integers(0, a - 1))][draw(st.integers(0, 1))] = draw(index)
    return pairs


class TestValidate:
    @settings(max_examples=300, deadline=None)
    @given(raw_pairings())
    def test_violations_match_reference_and_incidence_matches_brute_force(self, raw):
        expected = reference_validate(raw)
        try:
            P = lk.validate(raw)
        except PresentationError as err:
            assert err.violations == expected
            return
        assert expected == []
        assert P.arcs == tuple((min(i, j), max(i, j)) for i, j in raw)
        for b in range(1, P.a + 1):
            at = [(p, j if i == b else i) for p, (i, j) in enumerate(P.arcs, start=1) if b in (i, j)]
            assert P.pages_at(b) == (at[0][0], at[1][0])
            assert P.far_ends(b) == (at[0][1], at[1][1])

    def test_unsorted_input_cycle(self):
        P = lk.validate([[1, 4], [2, 5], [3, 1], [4, 2], [5, 3]])
        assert P.a == 5
        assert cycle_cover_oracle(P.arcs)
        assert all(i < j for i, j in P.arcs)

    def test_doubled_pair_is_smallest_valid(self):
        P = lk.validate([[1, 2], [1, 2]])
        assert P.a == 2

    def test_two_cycles_disconnected(self):
        with pytest.raises(PresentationError) as err:
            lk.validate([[1, 2], [3, 4], [1, 2], [3, 4]])
        assert any(code == "disconnected" for code, _ in err.value.violations)

    def test_degenerate_arc(self):
        with pytest.raises(PresentationError) as err:
            lk.validate([[1, 1], [2, 3], [2, 3]])
        assert any(code == "degenerate_arc" for code, _ in err.value.violations)

    def test_index_out_of_range(self):
        with pytest.raises(PresentationError) as err:
            lk.validate([[1, 7], [2, 3], [1, 2], [3, 4], [4, 5]])
        codes = {code for code, _ in err.value.violations}
        assert "index_out_of_range" in codes

    def test_binding_degree(self):
        with pytest.raises(PresentationError) as err:
            lk.validate([[1, 2], [1, 2], [1, 2]])
        assert any(code == "binding_degree" for code, _ in err.value.violations)

    def test_all_violations_reported(self):
        with pytest.raises(PresentationError) as err:
            lk.validate([[1, 1], [2, 9], [3, 4], [3, 4]])
        codes = {code for code, _ in err.value.violations}
        assert {"degenerate_arc", "index_out_of_range", "binding_degree"} <= codes

    @pytest.mark.parametrize("bad", [[1.7, 4], [True, 4], ["1", 4], [1, 4, 9], [1], 14])
    def test_non_integer_pairs_rejected(self, bad):
        with pytest.raises(PresentationError):
            lk.validate([bad, [2, 5], [1, 3], [2, 4], [3, 5]])

    def test_random_generators_validate(self):
        rng = random.Random(5)
        for _ in range(100):
            P = lk.random_presentation(rng.randint(5, 10), rng)
            assert lk.validate([list(p) for p in P.arcs]) == P
        for _ in range(50):
            P = random_star_presentation(rng.choice([5, 7, 9]), rng)
            assert lk.is_star_shaped(P)


class TestRotations:
    def test_identity_and_full_turn(self, p5):
        assert lk.rotate(p5, pages=0) == p5
        assert lk.rotate(p5, pages=p5.a) == p5
        assert lk.rotate(p5, bindings=0) == p5

    def test_page_rotation_moves_page_1_to_3(self, p5):
        rotated = lk.rotate(p5, pages=2)
        assert rotated.arcs[2] == p5.arcs[0]

    def test_binding_rotation_on_pentagram(self, p5):
        # pair {3,5} at page 5 becomes {1,4} after shifting indices by 1
        rotated = lk.rotate(p5, bindings=1)
        assert rotated.arcs[4] == (1, 4)

    def test_rotations_invert(self):
        rng = random.Random(9)
        for _ in range(50):
            a = rng.randint(5, 9)
            P = lk.random_presentation(a, rng)
            m = rng.randint(1, a - 1)
            assert lk.rotate(lk.rotate(P, pages=m), pages=a - m) == P
            assert lk.rotate(lk.rotate(P, bindings=m), bindings=a - m) == P

    def test_rotations_preserve_star_shape(self):
        rng = random.Random(10)
        for _ in range(30):
            P = random_star_presentation(rng.choice([5, 7, 9]), rng)
            m = rng.randint(0, P.a)
            assert lk.is_star_shaped(lk.rotate(P, pages=m))
            assert lk.is_star_shaped(lk.rotate(P, bindings=m))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_pass_is_pages_then_bindings(self, data):
        a = data.draw(st.integers(2, 20))
        P = lk.random_presentation(a, data.draw(st.randoms(use_true_random=False)))
        m = data.draw(st.integers(-3 * a, 3 * a))
        k = data.draw(st.integers(-3 * a, 3 * a))
        assert lk.rotate(P, m, k) == lk.rotate(lk.rotate(P, pages=m), bindings=k)
        assert lk.rotate(P) == P


class TestDual:
    def test_pentagram_dual_frozen(self, p5):
        # independent incidence oracle: collect pages at each binding index
        expected = []
        for m in range(1, 6):
            pages = [p for p, pair in enumerate(p5.arcs, start=1) if m in pair]
            expected.append(tuple(sorted(pages)))
        D = lk.dual(p5)
        assert D.arcs == tuple(expected)
        assert D.arcs == ((1, 3), (2, 4), (3, 5), (1, 4), (2, 5))

    def test_involution(self):
        rng = random.Random(21)
        for _ in range(100):
            P = lk.random_presentation(rng.randint(2, 10), rng)
            assert lk.dual(lk.dual(P)) == P

    def test_doubled_pair_self_dual(self):
        P = lk.validate([[1, 2], [1, 2]])
        assert lk.dual(P) == P


class TestIncidence:
    def test_pages_and_far_ends_match_a_scan_of_the_arcs(self):
        rng = random.Random(23)
        for _ in range(50):
            P = lk.random_presentation(rng.randint(2, 30), rng)
            for b in range(1, P.a + 1):
                at = [
                    (p, j if i == b else i)
                    for p, (i, j) in enumerate(P.arcs, start=1)
                    if b in (i, j)
                ]
                assert P.pages_at(b) == (at[0][0], at[1][0])
                assert P.far_ends(b) == (at[0][1], at[1][1])

    @pytest.mark.parametrize("binding", [1, 2])
    def test_binding_on_other_than_two_pages_raises(self, binding):
        # binding 1 is on pages 1..3 and binding 2 on page 1 alone; each is
        # reported, in binding order
        used = {1: 3, 2: 1}
        with pytest.raises(PresentationError) as err:
            lk.ArcPresentation(((1, 2), (1, 3), (1, 4), (3, 4)))
        assert err.value.violations == [
            ("binding_degree", f"index {b} used {n} times, expected 2") for b, n in used.items()
        ]
        assert ("binding_degree", f"index {binding} used {used[binding]} times, expected 2") in (
            err.value.violations
        )

    @pytest.mark.parametrize("binding", [0, 5])
    def test_binding_outside_1_to_a_raises(self, binding):
        # 0 would wrap to the last binding's pages without the range check
        P = lk.validate([[1, 2], [1, 3], [2, 4], [3, 4]])
        with pytest.raises(InternalInvariantError, match=f"binding index {binding} "):
            P.pages_at(binding)
        with pytest.raises(InternalInvariantError, match=f"binding index {binding} "):
            P.far_ends(binding)
        assert P.pages_at(3) == (2, 4) and P.far_ends(4) == (2, 3)


class TestStarShape:
    def test_pentagram_is_star(self, p5):
        assert lk.is_star_shaped(p5)

    def test_even_a_never_star(self):
        rng = random.Random(2)
        for _ in range(50):
            P = lk.random_presentation(rng.choice([6, 8, 10]), rng)
            assert not lk.is_star_shaped(P)

    def test_one_bad_pair_breaks_star(self):
        # odd a, so only the pairs decide; {1, 2} and {4, 5} differ by 1.  No
        # valid presentation differs from a star one in a single pair.
        assert not lk.is_star_shaped(lk.validate([[1, 2], [2, 4], [1, 3], [3, 5], [4, 5]]))


def witness_scan_oracle(P):
    """Exhaustive independent scan for any non-star witness."""
    a = P.a
    found = []
    for beta in range(1, a + 1):
        ends = [j if i == beta else i for (i, j) in P.arcs if beta in (i, j)]
        diff = (ends[0] - ends[1]) % a
        if diff not in (1, a - 1):
            found.append((beta, tuple(sorted(ends))))
    return found


class TestWitness:
    def test_star_has_no_witness(self, p5):
        assert lk.find_nonstar_witness(p5) is None

    def test_figure8_has_witness(self, p6):
        assert lk.find_nonstar_witness(p6) is not None

    def test_rewired_pentagram_witness_frozen(self):
        P = lk.validate([[1, 2], [2, 4], [1, 3], [3, 5], [4, 5]])
        w = lk.find_nonstar_witness(P)
        assert w is not None
        # beta'=1 fails (far ends 2,3 differ by 1); beta'=2 hits with far ends {1,4}
        assert w.beta_raw == 2
        assert (w.alpha_raw, w.gamma_raw) == (1, 4)
        oracle = witness_scan_oracle(P)
        assert oracle[0] == (w.beta_raw, (w.alpha_raw, w.gamma_raw))

    def test_witness_matches_scan_oracle(self):
        rng = random.Random(33)
        for _ in range(200):
            a = rng.randint(5, 9)
            P = lk.random_presentation(a, rng)
            w = lk.find_nonstar_witness(P)
            oracle = witness_scan_oracle(P)
            if w is None:
                assert oracle == []
            else:
                assert oracle[0] == (w.beta_raw, (w.alpha_raw, w.gamma_raw))

    def test_none_iff_star(self):
        rng = random.Random(34)
        for _ in range(300):
            a = rng.randint(5, 9)
            P = (
                random_star_presentation(a, rng)
                if a % 2 and rng.random() < 0.4
                else lk.random_presentation(a, rng)
            )
            assert (lk.find_nonstar_witness(P) is None) == lk.is_star_shaped(P)

    @pytest.mark.parametrize("a", [5, 6])
    def test_none_iff_star_on_every_presentation(self, a):
        # build_branch reads star shape from the witness scan alone
        star = 0
        for P in arc_presentations(a):
            is_star = lk.is_star_shaped(P)
            assert (lk.find_nonstar_witness(P) is None) == is_star, P.arcs
            star += is_star
        assert star == {5: 24, 6: 0}[a]

    def test_witness_arcs_exist(self):
        rng = random.Random(35)
        for _ in range(100):
            P = lk.random_presentation(rng.randint(5, 9), rng)
            w = lk.find_nonstar_witness(P)
            if w is None:
                continue
            pairs = set(P.arcs)
            assert (min(w.alpha_raw, w.beta_raw), max(w.alpha_raw, w.beta_raw)) in pairs
            assert (min(w.beta_raw, w.gamma_raw), max(w.beta_raw, w.gamma_raw)) in pairs
            assert (w.alpha_raw - w.gamma_raw) % P.a not in (1, P.a - 1)


def reference_normalize(P, w):
    """The two-step relabelling by search: the far-end labelling that gives
    1 < alpha < beta < a, then the pages of its two arcs found in P."""
    a = P.a
    for alpha_raw, gamma_raw in ((w.alpha_raw, w.gamma_raw), (w.gamma_raw, w.alpha_raw)):
        shift = a - gamma_raw
        alpha, beta = lk.mod_star(alpha_raw + shift, a), lk.mod_star(w.beta_raw + shift, a)
        if 1 < alpha < beta < a:
            break
    else:
        raise AssertionError(f"no far-end labelling of {w} normalizes")
    first = P.arcs.index(tuple(sorted((alpha_raw, w.beta_raw)))) + 1
    lift = P.arcs.index(tuple(sorted((w.beta_raw, gamma_raw)))) + 1
    Q = lk.rotate(lk.rotate(P, bindings=shift), pages=1 - first)
    return lk.NormalizedNonStar(Q, alpha=alpha, beta=beta, lift_page=lk.mod_star(lift + 1 - first, a))


class TestNormalize:
    def test_postconditions(self):
        rng = random.Random(55)
        seen = 0
        while seen < 100:
            a = rng.randint(5, 9)
            P = lk.random_presentation(a, rng)
            w = lk.find_nonstar_witness(P)
            if w is None:
                continue
            seen += 1
            nns = lk.normalize_for_nonstar(P, w)
            Q = nns.presentation
            assert 1 < nns.alpha < nns.beta < a
            assert Q.arcs.index((nns.alpha, nns.beta)) + 1 == 1
            assert Q.arcs.index((nns.beta, a)) + 1 == nns.lift_page
            assert nns.lift_page >= 2
            assert nns == reference_normalize(P, w)

    @pytest.mark.parametrize("a", [5, 6])
    def test_matches_two_labelling_search_on_every_presentation(self, a):
        seen = 0
        for P in arc_presentations(a):
            w = lk.find_nonstar_witness(P)
            if w is None:
                continue
            seen += 1
            assert lk.normalize_for_nonstar(P, w) == reference_normalize(P, w), P.arcs
        assert seen == {5: 264, 6: 7200}[a]

    @pytest.mark.parametrize(
        "broken",
        [
            "alpha and beta swapped",
            "alpha 1",
            "beta a",
            "arcs[0] not (alpha, beta)",
            "lift_page 0",
            "lift_page 1",
            "lift_page past a",
            "arcs[lift_page-1] not (beta, a)",
        ],
    )
    def test_construction_rejects_a_broken_field(self, broken):
        rng = random.Random(56)
        seen = 0
        while seen < 20:
            P = lk.random_presentation(rng.randint(5, 9), rng)
            w = lk.find_nonstar_witness(P)
            if w is None:
                continue
            seen += 1
            nns = lk.normalize_for_nonstar(P, w)
            Q, alpha, beta, k, a = nns.presentation, nns.alpha, nns.beta, nns.lift_page, P.a
            assert replace(nns) == nns
            other = next(p for p in range(2, a + 1) if p != k)
            swapped = list(Q.arcs)
            swapped[0], swapped[other - 1] = swapped[other - 1], swapped[0]
            change = {
                "alpha and beta swapped": {"alpha": beta, "beta": alpha},
                "alpha 1": {"alpha": 1},
                "beta a": {"beta": a},
                "arcs[0] not (alpha, beta)": {"presentation": lk.ArcPresentation(tuple(swapped))},
                "lift_page 0": {"lift_page": 0},
                "lift_page 1": {"lift_page": 1},
                "lift_page past a": {"lift_page": a + 1},
                "arcs[lift_page-1] not (beta, a)": {"lift_page": other},
            }[broken]
            with pytest.raises(InternalInvariantError, match="witness configuration"):
                replace(nns, **change)

    def test_construction_rejects_alpha_1_with_both_arcs_in_place(self):
        P = lk.validate([[1, 3], [3, 5], [2, 5], [2, 4], [1, 4]])
        with pytest.raises(InternalInvariantError, match="witness configuration"):
            lk.NormalizedNonStar(P, alpha=1, beta=3, lift_page=2)

    def test_rotation_relabel_preserves_alexander(self, p6):
        w = lk.find_nonstar_witness(p6)
        nns = lk.normalize_for_nonstar(p6, w)
        before = lk.alexander(lk.arc_to_planar(p6))
        after = lk.alexander(lk.arc_to_planar(nns.presentation))
        assert before == after


def reference_torus_order_check(P):
    """Torus order by search: every rotation offset, in order then reversed."""
    a = P.a
    n = (a - 1) // 2
    page_by_pair = {pair: p for p, pair in enumerate(P.arcs, start=1)}
    pages = [page_by_pair[tuple(sorted((i, lk.mod_star(i + n, a))))] for i in range(1, a + 1)]
    for m in range(a):
        if all(pages[i - 1] == lk.mod_star(i + m, a) for i in range(1, a + 1)):
            return lk.TorusClassification(n=n, direction="in-order", rotation_offset=m)
    for m in range(a):
        if all(pages[i - 1] == lk.mod_star(m - i, a) for i in range(1, a + 1)):
            return lk.TorusClassification(n=n, direction="reverse-order", rotation_offset=m)
    return None


class TestTorusOrder:
    def test_pentagram_classification(self, p5):
        tc = lk.torus_order_check(p5)
        assert tc == lk.TorusClassification(n=2, direction="in-order", rotation_offset=2)

    def test_p7_classification(self, p7):
        tc = lk.torus_order_check(p7)
        assert tc == lk.TorusClassification(n=3, direction="in-order", rotation_offset=0)

    def test_scrambled_pages_not_torus_order(self):
        # star edge set of a=5 with pages (1,3,2,4,5) relative to chord order
        base = star_in_order(5)
        chords = {}
        for p, pair in enumerate(base.arcs, start=1):
            chords[p] = pair
        page_of_chord = {1: 1, 2: 3, 3: 2, 4: 4, 5: 5}
        arcs = [None] * 5
        for ci, page in page_of_chord.items():
            arcs[page - 1] = chords[ci]
        P = lk.ArcPresentation(tuple(arcs))
        assert lk.is_star_shaped(P)
        assert lk.torus_order_check(P) is None

    def test_requires_star(self, p6):
        with pytest.raises(lk.NotStarShapedError):
            lk.torus_order_check(p6)

    def test_reverse_order_detected(self):
        base = star_in_order(7)
        # reverse the page assignment: page(c_i) = mod*(1-i, 7)
        chord_pages = {}
        for p, pair in enumerate(base.arcs, start=1):
            chord_pages[pair] = p
        arcs = [None] * 7
        for pair, i in chord_pages.items():
            arcs[lk.mod_star(1 - i, 7) - 1] = pair
        P = lk.ArcPresentation(tuple(arcs))
        tc = lk.torus_order_check(P)
        assert tc is not None and tc.direction == "reverse-order"

    @pytest.mark.parametrize("a", [5, 7])
    def test_matches_offset_search_on_every_page_order(self, a):
        torus = 0
        for P in star_presentations(a):
            tc = lk.torus_order_check(P)
            assert tc == reference_torus_order_check(P), P.arcs
            torus += tc is not None
        assert torus == 2 * a

    def test_exhaustive_a5_counts(self):
        torus = sum(lk.torus_order_check(P) is not None for P in star_presentations(5))
        assert torus == 10  # a rotations x 2 directions


class TestDualAlexanderInvariance:
    def test_dual_preserves_alexander(self):
        rng = random.Random(77)
        for _ in range(20):
            P = lk.random_presentation(rng.randint(5, 8), rng)
            assert lk.alexander(lk.arc_to_planar(P)) == lk.alexander(
                lk.arc_to_planar(lk.dual(P))
            )
