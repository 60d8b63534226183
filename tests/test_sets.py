import math

import numpy as np
import pytest

from zopt.sets import (
    MEMBERSHIP_TOL,
    Ball,
    Box,
    WholeSpace,
    gradient_map,
    set_from_spec,
    spec_diameter,
)


class TestProjection:
    def test_box_interior_point_fixed(self):
        box = Box(-0.5, 0.5, dim=2)
        x = np.array([0.1, -0.3])
        assert np.array_equal(box.project(x), x)

    def test_box_clamps_by_hand(self):
        box = Box(-0.5, 0.5, dim=2)
        np.testing.assert_array_equal(
            box.project(np.array([1.0, -2.0])), np.array([0.5, -0.5])
        )

    def test_whole_space_is_identity(self):
        ws = WholeSpace(3)
        x = np.array([4.0, -7.0, 0.0])
        assert np.array_equal(ws.project(x), x)

    def test_ball_radial_rescaling(self):
        ball = Ball(np.zeros(2), 1.0)
        p = ball.project(np.array([3.0, 4.0]))
        np.testing.assert_allclose(p, [0.6, 0.8], rtol=1e-12)
        inside = np.array([0.3, -0.1])
        assert np.array_equal(ball.project(inside), inside)

    def test_projection_idempotent(self):
        gen = np.random.default_rng(0)
        for fs in (Box(-0.5, 0.5, dim=6), Ball(gen.standard_normal(6), 2.0)):
            pts = gen.standard_normal((200, 6)) * 3
            once = np.array([fs.project(p) for p in pts])
            twice = np.array([fs.project(p) for p in once])
            assert np.array_equal(once, twice)

    def test_projection_nonexpansive(self):
        gen = np.random.default_rng(1)
        for fs in (Box(-1.0, 2.0, dim=5), Ball(np.zeros(5), 1.5)):
            for _ in range(1000):
                x = gen.standard_normal(5) * 4
                y = gen.standard_normal(5) * 4
                dist_proj = np.linalg.norm(fs.project(x) - fs.project(y))
                assert dist_proj <= np.linalg.norm(x - y) * (1 + 1e-12)

    def test_projection_lands_feasible(self):
        gen = np.random.default_rng(2)
        for fs in (Box(-0.5, 0.5, dim=4), Ball(np.ones(4), 0.7)):
            for _ in range(500):
                assert fs.contains(fs.project(gen.standard_normal(4) * 10))

    def test_batched_projection_matches_rowwise(self):
        gen = np.random.default_rng(3)
        pts = gen.standard_normal((40, 3)) * 5
        for fs in (Box(-0.5, 0.5, dim=3), Ball(np.zeros(3), 1.0), WholeSpace(3)):
            batched = fs.project(pts)
            rows = np.array([fs.project(p) for p in pts])
            assert np.array_equal(batched, rows)

    def test_stacked_contains_is_row_by_row(self):
        gen = np.random.default_rng(5)
        pts = gen.standard_normal((60, 3)) * 0.6
        pts[3, 1] = np.nan
        for fs in (Box(-0.5, 0.5, dim=3), Ball(np.full(3, 0.1), 1.0), WholeSpace(3)):
            stacked = fs.contains(pts)
            assert stacked.dtype == bool and stacked.shape == (60,)
            assert stacked.tolist() == [fs.contains(p) for p in pts]
            assert isinstance(fs.contains(pts[0]), bool)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            Box(-1, 1, dim=3).project(np.zeros(4))


class TestBoxBounds:
    def test_bounds_are_private_read_only_copies(self):
        lower = np.array([-1.0, -2.0])
        upper = np.array([1.0, 0.0])
        box = Box(lower, upper)
        lower[:] = 5.0
        upper[:] = 9.0
        np.testing.assert_array_equal(box.lower, [-1.0, -2.0])
        np.testing.assert_array_equal(box.upper, [1.0, 0.0])
        assert box.contains(np.array([-1.0, -2.0]))
        np.testing.assert_array_equal(box.project(np.array([7.0, 7.0])), [1.0, 0.0])
        for bound in (box.lower, box.upper):
            with pytest.raises(ValueError, match="read-only"):
                bound[0] = 0.0

    def test_dim_must_agree_with_vector_bounds(self):
        with pytest.raises(ValueError, match="dim is 3 but the bounds have length 2"):
            Box([0.0, 0.0], [1.0, 1.0], dim=3)
        assert Box([0.0, 0.0], [1.0, 1.0], dim=2).dim == 2
        assert Box(0.0, [1.0, 1.0, 1.0], dim=3).dim == 3

    def test_contains_rejects_nan(self):
        box = Box(-0.5, 0.5, dim=3)
        assert not box.contains(np.array([0.0, np.nan, 0.0]))
        assert not box.contains(np.full(3, np.nan))

    def test_tolerance_edge_on_both_sides_of_both_bounds(self):
        box = Box(np.array([-1.0, 0.25]), np.array([2.0, 3.0]))
        edges = (
            (0, -1.0 - MEMBERSHIP_TOL, -np.inf),
            (0, 2.0 + MEMBERSHIP_TOL, np.inf),
            (1, 0.25 - MEMBERSHIP_TOL, -np.inf),
            (1, 3.0 + MEMBERSHIP_TOL, np.inf),
        )
        for i, edge, outward in edges:
            x = np.array([0.5, 1.0])
            x[i] = edge
            assert box.contains(x)
            x[i] = np.nextafter(edge, -outward)
            assert box.contains(x)
            x[i] = np.nextafter(edge, outward)
            assert not box.contains(x)

    def test_project_is_bitwise_np_clip_on_special_values(self):
        # np.clip is the reference: signed zeros, infinities, NaN and
        # subnormals, at lengths and offsets that reach SIMD loop tails
        tiny = np.finfo(float).smallest_subnormal
        specials = np.array(
            [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 2.0**-1022,
             -(2.0**-1022), 0.5, -0.5, 1.0, -1.0, 1e308, -1e308]
        )
        pairs = [
            (0.0, 1.0), (-1.0, -0.0), (-tiny, tiny), (tiny, 2 * tiny),
            (-np.inf, 0.0), (-0.0, np.inf), (-0.5, 0.5), (-np.inf, np.inf),
        ]
        cases = 0
        for shift in range(len(pairs)):
            for length in range(1, 20):
                bounds = [pairs[(shift + j) % len(pairs)] for j in range(length)]
                box = Box(np.array([b[0] for b in bounds]), np.array([b[1] for b in bounds]))
                for offset in range(8):
                    buffer = np.empty(length + offset)
                    x = buffer[offset:]
                    x[:] = np.resize(np.roll(specials, shift + offset), length)
                    expected = np.clip(x, box.lower, box.upper)
                    assert box.project(x).tobytes() == expected.tobytes()
                    cases += length
        assert cases > 10_000


class TestBallCenter:
    def test_center_is_a_private_read_only_copy(self):
        center = np.zeros(2)
        ball = Ball(center, 1.0)
        center[:] = 5.0
        assert ball.center is not center
        np.testing.assert_array_equal(ball.center, [0.0, 0.0])
        assert ball.contains(np.zeros(2))
        with pytest.raises(ValueError, match="read-only"):
            ball.center[0] = 1.0


class TestDiameter:
    def test_unit_box_diameter_is_sqrt_n(self):
        for n in (2, 5, 9):
            box = Box(-0.5, 0.5, dim=n)
            assert box.diameter() == pytest.approx(math.sqrt(n), rel=1e-12)

    def test_ball_diameter(self):
        assert Ball(np.zeros(3), 3.0).diameter() == 6.0

    def test_whole_space_diameter_infinite(self):
        assert math.isinf(WholeSpace(2).diameter())


class TestMembership:
    def test_boundary_points_are_members(self):
        box = Box(-0.5, 0.5, dim=2)
        assert box.contains(np.array([0.5, -0.5]))
        assert box.contains(np.array([0.5 + 1e-13, 0.0]))
        assert not box.contains(np.array([0.5 + 1e-9, 0.0]))

    def test_validation(self):
        with pytest.raises(ValueError, match="lower < upper"):
            Box(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="radius"):
            Ball(np.zeros(2), 0.0)
        with pytest.raises(ValueError, match="dim"):
            Box(-1, 1, dim=None)

    def test_sample_is_feasible(self):
        gen = np.random.default_rng(4)
        for fs in (Box(-0.5, 0.5, dim=5), Ball(np.ones(5), 2.0)):
            for _ in range(200):
                assert fs.contains(fs.sample(gen))


class TestSampleStack:
    @pytest.mark.parametrize(
        "fs",
        [
            Box(-0.5, 0.5, dim=7),
            Box(np.arange(7.0), np.arange(7.0) + 2.0),
            Ball(np.ones(7), 2.0),
            WholeSpace(7),
        ],
        ids=["box", "vector_box", "ball", "whole_space"],
    )
    @pytest.mark.parametrize("num", [0, 1, 37])
    def test_stack_equals_single_calls_and_leaves_gen_there(self, fs, num):
        stacked_gen, single_gen = np.random.default_rng(8), np.random.default_rng(8)
        stack = fs.sample(stacked_gen, num)
        assert stack.shape == (num, 7)
        singles = [fs.sample(single_gen) for _ in range(num)]
        assert stack.tolist() == [p.tolist() for p in singles]
        assert stacked_gen.bit_generator.state == single_gen.bit_generator.state
        assert fs.sample(stacked_gen).tolist() == fs.sample(single_gen).tolist()


class TestGradientMap:
    def test_whole_space_returns_g(self):
        ws = WholeSpace(3)
        x = np.array([1.0, 2.0, 3.0])
        g = np.array([-0.5, 4.0, 0.25])
        np.testing.assert_array_equal(gradient_map(ws, x, g, 0.1), g)

    def test_inactive_clip_returns_g(self):
        # x - h g = 0.4 - 0.1 * 2 = 0.2 stays interior
        box = Box(-0.5, 0.5, dim=1)
        out = gradient_map(box, np.array([0.4]), np.array([2.0]), 0.1)
        assert out[0] == pytest.approx(2.0, rel=1e-12)

    def test_active_clip_by_hand(self):
        # x - h g = 0.4 + 0.3 = 0.7 clips to 0.5: (0.4 - 0.5) / 0.1 = -1
        box = Box(-0.5, 0.5, dim=1)
        out = gradient_map(box, np.array([0.4]), np.array([-3.0]), 0.1)
        assert out[0] == pytest.approx(-1.0, rel=1e-12)

    def test_interior_step_machine_precision(self):
        gen = np.random.default_rng(5)
        box = Box(-10.0, 10.0, dim=4)
        for _ in range(100):
            x = gen.uniform(-1, 1, size=4)
            g = gen.standard_normal(4)
            out = gradient_map(box, x, g, 0.01)
            np.testing.assert_allclose(out, g, rtol=0, atol=1e-12)

    def test_requires_feasible_point(self):
        box = Box(-0.5, 0.5, dim=2)
        with pytest.raises(ValueError, match="feasible"):
            gradient_map(box, np.array([2.0, 0.0]), np.zeros(2), 0.1)

    def test_requires_positive_step(self):
        with pytest.raises(ValueError, match="h"):
            gradient_map(WholeSpace(2), np.zeros(2), np.zeros(2), 0.0)

    @pytest.mark.parametrize("fs", [Box(-0.5, 0.5, dim=5), Ball(np.zeros(5), 1.0), WholeSpace(5)])
    def test_stack_is_row_by_row(self, fs):
        gen = np.random.default_rng(9)
        x = fs.sample(gen, 60)
        g = gen.standard_normal((60, 5)) * np.geomspace(0.01, 100.0, 60)[:, None]
        out = gradient_map(fs, x, g, 0.05)
        singles = [gradient_map(fs, xi, gi, 0.05) for xi, gi in zip(x, g)]
        assert out.tolist() == [row.tolist() for row in singles]
        active = [not np.array_equal(row, gi) for row, gi in zip(singles, g)]
        if not isinstance(fs, WholeSpace):
            assert any(active) and not all(active)

    def test_stack_with_an_infeasible_row_raises(self):
        box = Box(-0.5, 0.5, dim=3)
        x = np.zeros((4, 3))
        x[2, 1] = 0.6
        with pytest.raises(ValueError, match="feasible"):
            gradient_map(box, x, np.ones((4, 3)), 0.1)


class TestSpecRoundTrip:
    def test_box_spec(self):
        fs = set_from_spec({"kind": "box", "lower": "-0.5", "upper": "0.5"}, dim=3)
        assert isinstance(fs, Box)
        assert fs.dim == 3
        rebuilt = set_from_spec(fs.spec(), dim=3)
        assert np.array_equal(rebuilt.lower, fs.lower)
        assert np.array_equal(rebuilt.upper, fs.upper)

    def test_vector_bounds(self):
        fs = set_from_spec({"kind": "box", "lower": "-1,-2", "upper": "1,0"}, dim=2)
        np.testing.assert_array_equal(fs.lower, [-1.0, -2.0])

    def test_ball_spec(self):
        fs = set_from_spec({"kind": "ball", "center": "0", "radius": "2.5"}, dim=4)
        assert isinstance(fs, Ball)
        assert fs.radius == 2.5
        rebuilt = set_from_spec(fs.spec(), dim=4)
        assert rebuilt.radius == fs.radius

    def test_whole_space_spec(self):
        assert isinstance(set_from_spec({"kind": "whole_space"}, dim=2), WholeSpace)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown set kind"):
            set_from_spec({"kind": "simplex"}, dim=2)

    @pytest.mark.parametrize(
        "spec, key",
        [
            ({"kind": "ball", "radius": "1", "centre": "0.3"}, "centre"),
            ({"kind": "box", "lower": "-1", "upper": "1", "radius": "1"}, "radius"),
            ({"kind": "box", "lower": "-1", "upper": "1", "center": "0"}, "center"),
            ({"kind": "whole_space", "radius": "1"}, "radius"),
        ],
    )
    def test_key_the_kind_does_not_take(self, spec, key):
        with pytest.raises(ValueError, match=f"{spec['kind']} set does not take '{key}'"):
            set_from_spec(spec, dim=2)


class TestSpecDiameter:
    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "box", "lower": "-0.5", "upper": "0.5"},
            {"kind": "box", "lower": "-1,-2,0", "upper": "1"},
            {"kind": "ball", "radius": "2.5"},
            {"kind": "ball", "center": "1,2,3", "radius": "0.5"},
            {"kind": "whole_space"},
        ],
    )
    def test_matches_the_built_set(self, spec):
        expected = set_from_spec(spec, dim=3).diameter()
        assert spec_diameter(spec, 3) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"kind": "box", "lower": "1", "upper": "-1"}, "lower < upper"),
            ({"kind": "box", "lower": "0,2,0", "upper": "1"}, "lower < upper"),
            ({"kind": "box", "lower": "0,0", "upper": "1"}, "lower has 2 entries"),
            ({"kind": "box", "lower": "x", "upper": "1"}, "lower must be a number"),
            ({"kind": "ball", "radius": "-1"}, "radius must be positive"),
            ({"kind": "ball", "radius": "1", "center": "a"}, "center must be a number"),
            ({"kind": "simplex"}, "unknown set kind"),
        ],
    )
    def test_fails_as_set_from_spec_fails(self, spec, message):
        for check in (set_from_spec, spec_diameter):
            with pytest.raises(ValueError, match=message):
                check(spec, 3)

    def test_scalar_bounds_at_any_dimension(self):
        # 10**12 entries would need 8 TB: only scalars can pass
        spec = {"kind": "box", "lower": "-0.5", "upper": "0.5"}
        assert spec_diameter(spec, 10**12) == pytest.approx(10**6, rel=1e-15)
        assert spec_diameter({"kind": "ball", "radius": "2"}, 10**12) == 4.0
        assert math.isinf(spec_diameter({"kind": "box", "lower": "-inf", "upper": "0"}, 10**12))
