"""Equivalence tests for the kernel fast-path layer.

Each optimized path is pinned against its retained scratch reference:
the incremental OSP basis and bordered Gram inverse against from-scratch
rebuilds (to 1e-10, including rank-deficient and near-collinear target
sets), the pair-compressed MEI map against the direct per-pass evaluation
(bit-for-bit), and the zero-copy transport against the invariant that a
delivered array is never a *writable* alias of the sender's buffer.
"""

import numpy as np
import pytest

from repro.core.morph import mei_map, mei_map_reference
from repro.core.ufcls import fcls_error_image
from repro.errors import DataError
from repro.linalg.fcls import IncrementalFCLS, _reg_inverse
from repro.linalg.osp import (
    IncrementalOSP,
    orthonormal_basis,
    residual_energy,
)
from repro.morphology.structuring import (
    StructuringElement,
    cross,
    disk,
    square,
)
from repro.mpi.inproc import run_inproc


class TestIncrementalOSP:
    def test_residuals_match_scratch_every_iteration(self, rng, small_scene):
        # A random cloud, and ATDCA's pick sequence on a WTC scene at
        # the paper's depth (t = 30): each step's argmax must agree too.
        for pix, steps in (
            (rng.normal(size=(200, 24)), 12),
            (small_scene.image.flatten_pixels(), 30),
        ):
            inc = IncrementalOSP(pix)
            picks = []
            for step in range(steps):
                picks.append(int(np.argmax(inc.residual_energy())))
                inc.add_target(pix[picks[-1]])
                scratch = residual_energy(pix, pix[np.asarray(picks)])
                np.testing.assert_allclose(
                    inc.residual_energy(), scratch, atol=1e-10
                )
                assert np.argmax(inc.residual_energy()) == np.argmax(scratch)

    def test_basis_spans_scratch_subspace(self, rng):
        pix = rng.normal(size=(50, 16))
        targets = pix[:6]
        inc = IncrementalOSP(pix)
        for sig in targets:
            inc.add_target(sig)
        q_inc = inc.basis
        q_ref = orthonormal_basis(targets)
        # Same subspace ⇔ same orthogonal projector.
        np.testing.assert_allclose(
            q_inc @ q_inc.T, q_ref @ q_ref.T, atol=1e-10
        )

    def test_rank_deficient_targets_bypassed(self, rng):
        pix = rng.normal(size=(120, 10))
        a, b = pix[3], pix[17]
        # Dependent additions: a scaled copy and an exact combination.
        sequence = [a, b, 2.5 * a, a - 0.75 * b, pix[40]]
        accepted = []
        inc = IncrementalOSP(pix)
        flags = [inc.add_target(sig) for sig in sequence]
        assert flags == [True, True, False, False, True]
        accepted = np.stack(sequence)
        assert inc.n_directions == np.linalg.matrix_rank(accepted)
        scratch = residual_energy(pix, accepted)
        np.testing.assert_allclose(inc.residual_energy(), scratch, atol=1e-10)

    def test_near_collinear_targets_stay_accurate(self, rng):
        pix = rng.normal(size=(150, 12))
        base = pix[5]
        # Barely independent: a 1e-6 perturbation off the span.
        tilt = base + 1e-6 * rng.normal(size=12)
        inc = IncrementalOSP(pix)
        inc.add_target(base)
        inc.add_target(tilt)
        scratch = residual_energy(pix, np.stack([base, tilt]))
        np.testing.assert_allclose(inc.residual_energy(), scratch, atol=1e-10)
        # The re-orthogonalized basis must remain orthonormal.
        q = inc.basis
        np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-12)


class TestIncrementalFCLS:
    def test_gram_inverse_matches_scratch_every_iteration(self, rng):
        pix = rng.normal(size=(80, 20))
        inc = IncrementalFCLS(pix)
        for step in range(8):
            inc.add_target(pix[step * 3])
            end = pix[[i * 3 for i in range(step + 1)]]
            scratch = _reg_inverse(end @ end.T, 1e-10)
            np.testing.assert_allclose(
                inc.gram_inverse, scratch, atol=1e-10
            )

    def test_near_collinear_triggers_schur_rebuild(self, rng):
        pix = rng.normal(size=(60, 15))
        sig = pix[2]
        # Within the Schur guard: bordering must fall back to a scratch
        # inverse, and the result must still match it exactly.
        near = sig * (1.0 + 1e-12)
        inc = IncrementalFCLS(pix)
        inc.add_target(sig)
        inc.add_target(near)
        end = np.stack([sig, near])
        scratch = _reg_inverse(end @ end.T, 1e-10)
        np.testing.assert_allclose(inc.gram_inverse, scratch, atol=1e-10)

    def test_error_image_matches_scratch(self, rng):
        pix = np.abs(rng.normal(size=(90, 18)))
        inc = IncrementalFCLS(pix)
        picks = [0]
        inc.add_target(pix[0])
        for _ in range(5):
            err_inc = inc.error_image()
            err_ref = fcls_error_image(pix, pix[np.asarray(picks)])
            np.testing.assert_allclose(err_inc, err_ref, atol=1e-10)
            picks.append(int(np.argmax(err_ref)))
            inc.add_target(pix[picks[-1]])

    def test_zero_first_target_rejected_without_ridge(self):
        # With the default ridge the damping makes any Gram invertible;
        # only the unregularized state must refuse a zero signature.
        inc = IncrementalFCLS(np.ones((4, 6)), ridge=0.0)
        with pytest.raises(DataError):
            inc.add_target(np.zeros(6))


class TestMeiMapFastPath:
    @pytest.mark.parametrize(
        "shape,se,iterations",
        [
            ((17, 13, 6), square(3), 4),
            ((24, 9, 5), cross(3), 3),
            ((12, 12, 7), square(5), 5),
            ((10, 11, 4), disk(1), 2),
            ((5, 5, 4), square(3), 1),
            ((30, 20, 8), square(3), 6),
            ((6, 7, 4), square(1), 3),
            # No centre cell: the first offset seeds every running extremum.
            ((9, 8, 5), StructuringElement(~np.eye(3, dtype=bool)), 3),
        ],
    )
    def test_bit_identical_to_reference(self, rng, shape, se, iterations):
        cube = np.abs(rng.normal(size=shape)) + 0.05
        fast = mei_map(cube, se, iterations)
        ref = mei_map_reference(cube, se, iterations)
        assert np.array_equal(fast, ref)

    def test_bit_identical_on_scene(self, small_scene):
        cube = small_scene.image.values
        fast = mei_map(cube, square(3), 5)
        ref = mei_map_reference(cube, square(3), 5)
        assert np.array_equal(fast, ref)

    def test_constant_cube(self):
        # Degenerate: every angle is 0, every pixel ties.
        cube = np.ones((8, 9, 5))
        fast = mei_map(cube, square(3), 3)
        ref = mei_map_reference(cube, square(3), 3)
        assert np.array_equal(fast, ref)

    def test_zero_pixels_handled(self, rng):
        cube = np.abs(rng.normal(size=(9, 9, 6)))
        cube[2, 3] = 0.0  # zero-norm pixel exercises the _EPS clamp
        cube[7, 1] = 0.0
        fast = mei_map(cube, square(3), 4)
        ref = mei_map_reference(cube, square(3), 4)
        assert np.array_equal(fast, ref)


class TestZeroCopyTransport:
    def test_delivered_array_is_never_a_writable_alias(self):
        def program(ctx):
            if ctx.rank == 0:
                arr = np.arange(12.0)
                ctx.send(1, {"block": arr, "round": 1})
                return arr
            return ctx.recv(0)

        result = run_inproc(2, program)
        sent, received = result.return_values
        got = received["block"]
        assert np.array_equal(got, sent)
        # The zero-copy contract: sharing the sender's buffer is fine
        # *only* as a read-only view.
        if np.shares_memory(got, sent):
            assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 99.0

    def test_nested_containers_frozen_recursively(self):
        def program(ctx):
            if ctx.rank == 0:
                payload = ([np.ones(3)], {"w": (np.zeros(2), 5)}, "tag")
                ctx.send(1, payload)
                return None
            return ctx.recv(0)

        received = run_inproc(2, program).return_values[1]
        assert not received[0][0].flags.writeable
        assert not received[1]["w"][0].flags.writeable
        assert received[1]["w"][1] == 5 and received[2] == "tag"

    def test_ensure_writable_gives_private_copy(self):
        from repro.cluster.mailbox import ensure_writable, freeze_payload

        src = np.arange(6.0)
        frozen = freeze_payload({"x": src})
        thawed = ensure_writable(frozen)
        assert thawed["x"].flags.writeable
        assert not np.shares_memory(thawed["x"], src)
        thawed["x"][0] = -1.0
        assert src[0] == 0.0
