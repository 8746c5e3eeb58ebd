import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from qpdyn.lattice import (
    ElementaryRegion,
    GeneralizedRegion,
    RegionFamily,
    enumerate_shapes,
    sup_norm,
    sup_norms,
    tile_disjoint,
)

from oracles import (
    all_shape_point_sets,
    elementary_point_set,
    generalized_point_set,
)


class TestEnumerateShapes:
    def test_d1_single_interval(self):
        shapes = enumerate_shapes(1, 2)
        assert len(shapes) == 1
        assert set(shapes[0].points()) == {(-2,), (-1,), (0,), (1,), (2,)}

    @pytest.mark.parametrize("d,size,count", [(2, 1, 5), (3, 1, 21), (2, 3, 5)])
    def test_counts(self, d, size, count):
        shapes = enumerate_shapes(d, size)
        assert len(shapes) == count
        assert len(shapes) == 3**d - (2 * d + 1) + 1 if d >= 2 else 1

    @pytest.mark.parametrize("d,size", [(2, 1), (2, 2), (3, 1)])
    def test_shapes_are_distinct_point_sets(self, d, size):
        sets = {frozenset(s.points()) for s in enumerate_shapes(d, size)}
        assert len(sets) == len(enumerate_shapes(d, size))
        assert sets == all_shape_point_sets(d, size)

    @pytest.mark.parametrize("d,size", [(1, 2), (2, 1), (2, 2), (3, 1)])
    def test_membership_matches_defining_inequalities(self, d, size):
        cube = itertools.product(range(-size, size + 1), repeat=d)
        pts = list(cube)
        for shape in enumerate_shapes(d, size):
            expected = elementary_point_set((0,) * d, size, shape.sector)
            assert {p for p in pts if shape.contains(p)} == set(expected)

    def test_rejects_single_marker(self):
        with pytest.raises(ValueError):
            ElementaryRegion((0, 0), 1, ("<", None))

    def test_translate(self):
        shape = enumerate_shapes(2, 1)[3]
        moved = shape.translate((5, -2))
        assert set(moved.points()) == {
            (a + 5, b - 2) for a, b in shape.points()
        }


def _oracle_points(region):
    if isinstance(region, ElementaryRegion):
        return elementary_point_set(region.center, region.size, region.sector)
    return generalized_point_set(region.center, region.half_widths, region.cut)


class TestRegionPointSets:
    @pytest.mark.parametrize(
        "region",
        [
            ElementaryRegion((0,), 3),
            ElementaryRegion((2,), 5),
            ElementaryRegion((0, 0), 2),
            ElementaryRegion((1, -1), 3),
            ElementaryRegion((0, 0), 2, ("<", "<")),
            ElementaryRegion((0, 0), 3, (">", "<")),
            ElementaryRegion((0, 0, 0), 1, ("<", ">", "<")),
            GeneralizedRegion((0,), (4,)),
            GeneralizedRegion((0, 0), (3, 2)),
            GeneralizedRegion((0, 0), (4, 3), cut=(3, 3)),
            GeneralizedRegion((0, 0), (4, 2), cut=(-2, 1)),
            GeneralizedRegion((1, 1), (2, 5), cut=(0, 7)),
        ],
    )
    def test_points_match_defining_inequalities(self, region):
        pts = list(region.points())
        expected = _oracle_points(region)
        assert len(pts) == len(set(pts))
        assert set(pts) == expected
        reach = region.size if isinstance(region, ElementaryRegion) else max(
            region.half_widths
        )
        box = itertools.product(
            *[range(c - reach - 1, c + reach + 2) for c in region.center]
        )
        for p in box:
            assert region.contains(p) == (p in expected)

    def test_single_point_region(self):
        region = GeneralizedRegion((0,), (0,))
        assert list(region.points()) == [(0,)]
        assert region.contains((0,))
        assert not region.contains((1,))

    def test_region_cut_by_itself_is_empty(self):
        empty = GeneralizedRegion((0,), (2,), cut=(0,))
        assert list(empty.points()) == []
        assert not any(empty.contains((n,)) for n in range(-3, 4))
        with pytest.raises(ValueError):
            RegionFamily((ElementaryRegion((0,), 1),), empty)


class TestSupNorm:
    @pytest.mark.parametrize(
        "n,expected",
        [((0,), 0), ((3, -5), 5), ((-7, 2, 7), 7), (np.array([4, -9]), 9)],
    )
    def test_largest_absolute_coordinate(self, n, expected):
        got = sup_norm(n)
        assert got == expected
        assert type(got) is int

    @pytest.mark.parametrize("n", [(0.5, -1.7), (1.0, 2), np.array([1.0, -2.0])])
    def test_a_non_integral_coordinate_raises(self, n):
        # sup_norm((0.5, -1.7)) used to truncate both coordinates and return 1
        with pytest.raises(ValueError, match="must be an integer"):
            sup_norm(n)
        with pytest.raises(ValueError, match="must be an integer"):
            sup_norms(np.array([n]))

    def test_array_form_matches_the_scalar_form(self):
        sites = np.array(list(itertools.product(range(-3, 4), repeat=2)))
        got = sup_norms(sites)
        assert got.dtype == np.float64
        assert got.tolist() == [sup_norm(n) for n in sites]
        pairs = sites[:, None, :] - sites[None, :, :]
        assert sup_norms(pairs).tolist() == [
            [sup_norm(p - q) for q in sites] for p in sites
        ]


class TestValidation:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: ElementaryRegion((), 1),
            lambda: ElementaryRegion((0,), 0),
            lambda: ElementaryRegion((0, 0), 1, ("<",)),
            lambda: ElementaryRegion((0, 0), 1, ("<", "=")),
            lambda: GeneralizedRegion((), ()),
            lambda: GeneralizedRegion((0, 0), (1,)),
            lambda: GeneralizedRegion((0,), (-1,)),
            lambda: GeneralizedRegion((0, 0), (1, 1), cut=(1,)),
            lambda: enumerate_shapes(0, 1),
            lambda: enumerate_shapes(2, 0),
            lambda: tile_disjoint(ElementaryRegion((0,), 2), 0),
            lambda: RegionFamily(
                (ElementaryRegion((-3,), 1), ElementaryRegion((2,), 2)),
                ElementaryRegion((0,), 5),
            ),
            # a non-integral number is rejected, not truncated or kept
            lambda: ElementaryRegion((0,), 1.5),
            lambda: enumerate_shapes(2, 1.5),
            lambda: ElementaryRegion((0.9,), 2),
            lambda: GeneralizedRegion((0,), (1.7,)),
            lambda: GeneralizedRegion((0, 0), (2, 2), cut=(1, 0.5)),
            lambda: ElementaryRegion((0,), 2).translate((0.5,)),
            lambda: tile_disjoint(ElementaryRegion((0,), 5), 1.5),
        ],
        ids=[
            "elementary-no-dimension",
            "elementary-size-zero",
            "elementary-sector-length",
            "elementary-sector-marker",
            "generalized-no-dimension",
            "generalized-widths-length",
            "generalized-negative-width",
            "generalized-cut-length",
            "shapes-dimension-zero",
            "shapes-size-zero",
            "tiling-size-zero",
            "family-mixed-sizes",
            "elementary-float-size",
            "shapes-float-size",
            "elementary-float-center",
            "generalized-float-width",
            "generalized-float-cut",
            "translate-float-shift",
            "tiling-float-size",
        ],
    )
    def test_invalid_geometry_raises(self, build):
        with pytest.raises(ValueError):
            build()

    def test_numpy_integers_are_accepted_as_python_ints(self):
        box = ElementaryRegion(np.array([3, -1]), np.int32(2))
        shifted = ElementaryRegion((0, 0), 2).translate(np.array([3, -1]))
        rect = GeneralizedRegion(np.array([0]), np.array([2]), cut=np.array([1]))
        assert box == shifted
        assert rect == GeneralizedRegion((0,), (2,), cut=(1,))
        for value in (*box.center, box.size, *rect.half_widths, *rect.cut):
            assert type(value) is int
        assert enumerate_shapes(2, np.int64(1)) == enumerate_shapes(2, 1)


class TestTiling:
    def test_interval_tiling(self):
        fam = tile_disjoint(ElementaryRegion((0,), 4), 1)
        assert len(fam) == 3
        assert [set(m.points()) for m in fam] == [
            {(-4,), (-3,), (-2,)},
            {(-1,), (0,), (1,)},
            {(2,), (3,), (4,)},
        ]

    def test_host_itself(self):
        fam = tile_disjoint(ElementaryRegion((0,), 1), 1)
        assert len(fam) == 1
        assert fam.members[0] == ElementaryRegion((0,), 1)

    def test_square_tiling(self):
        fam = tile_disjoint(ElementaryRegion((0, 0), 4), 1)
        assert len(fam) == 9

    def test_oversized_tile_rejected(self):
        with pytest.raises(ValueError):
            tile_disjoint(ElementaryRegion((0,), 2), 3)

    def test_sector_host_drops_clipped_cubes(self):
        host = ElementaryRegion((0, 0), 4, ("<", "<"))
        fam = tile_disjoint(host, 1)
        assert all(host.contains(p) for m in fam for p in m.points())
        assert len(fam) < 9

    def test_family_validation_rejects_overlap(self):
        host = ElementaryRegion((0,), 4)
        with pytest.raises(ValueError):
            RegionFamily(
                (ElementaryRegion((0,), 1), ElementaryRegion((1,), 1)), host
            )

    def test_family_validation_rejects_escape(self):
        host = ElementaryRegion((0,), 2)
        with pytest.raises(ValueError):
            RegionFamily((ElementaryRegion((2,), 1),), host)


@given(
    d=st.integers(min_value=1, max_value=2),
    size=st.integers(min_value=1, max_value=3),
    offset=st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=2),
)
@settings(max_examples=40, deadline=None)
def test_membership_is_translation_covariant(d, size, offset):
    k = tuple(offset[:d])
    for shape in enumerate_shapes(d, size):
        moved = shape.translate(k)
        for p in shape.points():
            assert moved.contains(tuple(a + b for a, b in zip(p, k)))


@given(
    half=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=2),
    cut=st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=2),
)
@settings(max_examples=40, deadline=None)
def test_generalized_membership_matches_points(half, cut):
    d = len(half)
    region = GeneralizedRegion((0,) * d, tuple(half), cut=tuple(cut[:d]))
    pts = set(region.points())
    box = itertools.product(*[range(-h - 1, h + 2) for h in half])
    for p in box:
        assert region.contains(p) == (p in pts)
