"""Exact reproductions of the paper's worked examples (Tables I-II,
Examples 1-6, Figures 2-5).

These tests pin the implementation to the paper's semantics attribute by
attribute: N=Name(0), A=Age(1), B=Blood pressure(2), G=Gender(3),
M=Medicine(4); tuples t1..t9 are rows 0..8.
"""

from __future__ import annotations

from repro.algorithms import BruteForce
from repro.core.inversion import Inverter
from repro.datasets.patients import (
    AGE,
    BLOOD_PRESSURE,
    GENDER,
    MEDICINE,
    NAME,
    patients,
)
from repro.fd import FD, NegativeCover, attrset
from repro.relation import fd_holds, preprocess

N, A, B, G, M = NAME, AGE, BLOOD_PRESSURE, GENDER, MEDICINE


class TestTable1Claims:
    """Claims made in the introduction about Table I."""

    def setup_method(self):
        self.data = preprocess(patients())

    def test_age_depends_on_name(self):
        assert fd_holds(self.data, FD.of([N], A))

    def test_blood_pressure_determined_by_gender_and_medicine(self):
        assert fd_holds(self.data, FD.of([G, M], B))


class TestExample1:
    def setup_method(self):
        self.data = preprocess(patients())

    def test_ab_determines_m(self):
        assert fd_holds(self.data, FD.of([A, B], M))

    def test_n_determines_b_vacuously(self):
        assert fd_holds(self.data, FD.of([N], B))

    def test_g_does_not_determine_m(self):
        assert not fd_holds(self.data, FD.of([G], M))
        # Witnessed by t2 and t8 sharing "Male".
        from repro.relation import find_violation

        witness = find_violation(self.data, FD.of([G], M))
        assert witness is not None


class TestExample2:
    def test_ng_specializes_n(self):
        assert FD.of([N, G], M).specializes(FD.of([N], M))
        assert FD.of([N], M).generalizes(FD.of([N, G], M))

    def test_abg_and_agm_incomparable(self):
        left, right = FD.of([A, B, G], N), FD.of([A, G, M], N)
        assert not left.specializes(right)
        assert not left.generalizes(right)


class TestExample3:
    def setup_method(self):
        self.truth = BruteForce().discover(patients()).fds

    def test_ab_to_m_is_minimal(self):
        assert FD.of([A, B], M) in self.truth

    def test_ng_to_m_is_not_minimal(self):
        assert FD.of([N, G], M) not in self.truth
        assert FD.of([N], M) in self.truth

    def test_trivial_fd_not_reported(self):
        assert FD.of([A, B, M], M) not in self.truth


class TestExample5And6AndFigure2:
    def setup_method(self):
        self.data = preprocess(patients())

    def test_partition_age(self):
        clusters = sorted(
            tuple(c) for c in self.data.stripped(A).clusters
        )
        assert clusters == [(1, 4, 6), (3, 5)]  # {t2,t5,t7}, {t4,t6}

    def test_partition_gender(self):
        clusters = sorted(
            tuple(c) for c in self.data.stripped(G).clusters
        )
        assert clusters == [(0, 2, 3, 4, 5, 6), (1, 7)]

    def test_gender_labels_match_example5(self):
        # Female -> 1, Male -> 2, Gender-queer -> 3 (0-indexed here).
        assert list(self.data.labels(G)) == [0, 1, 0, 0, 0, 0, 0, 1, 2]


class TestFigure3Capa:
    """The running example of the sampling module: cluster c1 =
    {t1, t3, t4, t5, t6, t7} (Gender = Female) sampled at window 2."""

    def test_first_sample_pairs(self):
        rows = (0, 2, 3, 4, 5, 6)  # 0-indexed Female cluster
        window = 2
        pairs = [
            (rows[i], rows[i + window - 1])
            for i in range(len(rows) - window + 1)
        ]
        assert pairs == [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6)]

    def test_t1_t3_comparison_yields_four_non_fds(self):
        data = preprocess(patients())
        agree = data.agree_mask(0, 2)
        assert agree == attrset.singleton(G)
        violated = attrset.universe(5) & ~agree
        assert attrset.size(violated) == 4  # G -/-> N, A, B, M


class TestFigure4NegativeCover:
    def test_construction(self):
        cover = NegativeCover(5)
        source_pairs = [(1, 6), (3, 6), (4, 5), (4, 6)]
        data = preprocess(patients())
        masks = [data.agree_mask(a, b) for a, b in source_pairs]
        # The four non-FDs of the figure: ABM, BG, BGM, AG -> each from
        # the corresponding tuple pair (t2,t7), (t4,t7), (t5,t6), (t5,t7).
        assert masks[0] == attrset.from_indices([A, B, M])
        assert masks[1] == attrset.from_indices([B, G])
        assert masks[2] == attrset.from_indices([B, G, M])
        assert masks[3] == attrset.from_indices([A, G])
        for mask in masks:
            cover.add(FD(mask, N))
        assert set(cover.lhs_masks(N)) == {
            attrset.from_indices([A, B, M]),
            attrset.from_indices([B, G, M]),
            attrset.from_indices([A, G]),
        }


class TestFigure5Inversion:
    def test_final_pcover_for_name(self):
        inverter = Inverter(5)
        inverter.process(
            [
                FD.of([M, B, G], N),
                FD.of([A, G], N),
                FD.of([A, M, B], N),
            ]
        )
        assert set(inverter.pcover.lhs_masks(N)) == {
            attrset.from_indices([A, B, G]),
            attrset.from_indices([A, M, G]),
        }

    def test_intermediate_step_of_figure_5a(self):
        """After inverting only MBG -/-> N, the cover for N is {A}."""
        inverter = Inverter(5)
        inverter.process([FD.of([M, B, G], N)])
        assert inverter.pcover.lhs_masks(N) == [attrset.singleton(A)]

    def test_intermediate_step_of_figure_5b(self):
        """After MBG and AG, the cover for N is {AB, AM}."""
        inverter = Inverter(5)
        inverter.process([FD.of([M, B, G], N)])
        inverter.process([FD.of([A, G], N)])
        assert set(inverter.pcover.lhs_masks(N)) == {
            attrset.from_indices([A, B]),
            attrset.from_indices([A, M]),
        }
