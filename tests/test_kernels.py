"""Tests for the repro.kernels subsystem.

Three layers:

- the kernel registry itself (registration, lookup, error paths);
- the shared int64 lazy-accumulator chunk bound
  (:func:`repro.kernels.lazy_reduction_chunk`), including the headroom
  regression at the boundary chunk size;
- bit-exactness of the stacked hot paths against independent naive
  references: stacked ``rotate_hoisted_raw`` vs a per-offset loop
  (across ks_alpha values, partial digit groups, mixed int and
  ``("conj", k)`` offsets, compressed keys at their level bound, and a
  forced ``_max_chunk`` fallback), the grouped fused matvec, and the
  simulator's batched gathers.
"""

import numpy as np
import pytest

from repro import kernels
from repro.backend import ToyBackend
from repro.backend.ledger import OpLedger
from repro.backend.sim import SimBackend
from repro.ckks.galois import galois_offset_key
from repro.ckks.params import toy_parameters
from repro.kernels.dispatch import KernelDispatchError, KernelRegistry
from repro.ntt import galois_eval_permutation

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(scope="module", params=[1, 2])
def toy_backend(request):
    alpha = request.param
    return ToyBackend(
        toy_parameters(
            ring_degree=256,
            max_level=5,
            num_special_primes=2,
            ks_alpha=alpha,
        ),
        seed=7,
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_known_kernels_registered(self):
        names = kernels.registry.kernels()
        for kernel in (
            "galois_gather",
            "ks_inner",
            "ks_inner_stacked",
            "ntt_stage",
        ):
            assert kernel in names

    def test_unknown_kernel_raises(self):
        with pytest.raises(KernelDispatchError, match="unknown kernel"):
            kernels.get("no_such_kernel")

    @pytest.mark.parametrize("backend", ["cuda", "threaded", "numba"])
    def test_unknown_backend_rejected_at_registration(self, backend):
        reg = KernelRegistry()
        with pytest.raises(KernelDispatchError, match="unknown backend"):
            reg.register("k", backend, lambda: None)

    def test_reregistration_replaces_the_kernel(self):
        reg = KernelRegistry()
        reg.register("k", "numpy", lambda: "first")
        wrapped = reg.register("k", "numpy")(lambda: "second")
        assert reg.get("k") is wrapped
        assert reg.get("k")() == "second"

    def test_dispatch_counts_are_opt_in(self):
        reg = KernelRegistry()
        reg.register("k", "numpy", lambda: None)
        reg.get("k")
        assert reg.drain_dispatch_counts() == {}
        reg.enable_dispatch_counts()
        reg.get("k")
        reg.get("k")
        assert reg.drain_dispatch_counts() == {"k": 2}
        assert reg.drain_dispatch_counts() == {}


# ---------------------------------------------------------------------------
# Shared chunk bound
# ---------------------------------------------------------------------------
class TestLazyReductionChunk:
    def test_headroom_at_boundary(self):
        """The bound must hold with a reduced value already in the
        accumulator: (max_q-1) + chunk * (max_q-1)^2 <= 2^63 - 1, and
        chunk is the largest such integer (the seed's _ks_inner formula
        admitted one extra product and could overflow)."""
        for max_q in (2**31 - 1, 2**29 + 3, 2**20 + 7, 3):
            chunk = kernels.lazy_reduction_chunk(max_q)
            top = max_q - 1
            assert top + chunk * top**2 <= 2**63 - 1
            assert top + (chunk + 1) * top**2 > 2**63 - 1

    def test_headroomed_vs_headroomless_formula(self):
        # The seed's _ks_inner bound (2^63-1) // top^2 ignores the
        # reduced value already sitting in the accumulator; find a
        # modulus where that admits one product too many and check the
        # shared helper reserves the headroom there.
        found = None
        for top in range(3, 200_000):
            if (2**63 - 1) % (top * top) < top:
                found = top + 1
                break
        assert found is not None
        loose = (2**63 - 1) // ((found - 1) ** 2)
        assert kernels.lazy_reduction_chunk(found) == loose - 1

    def test_max_chunk_cap(self):
        assert kernels.lazy_reduction_chunk(2**20, max_chunk=3) == 3
        with pytest.raises(ValueError, match="max_chunk"):
            kernels.lazy_reduction_chunk(2**20, max_chunk=0)

    def test_overflowing_primes_rejected(self):
        with pytest.raises(ValueError, match="32-bit primes"):
            kernels.lazy_reduction_chunk(2**33)

    def test_boundary_chunk_no_overflow_in_kernel(self):
        """Drive ks_inner at exactly the boundary chunk size with
        worst-case residues; int64 overflow would trip the
        error-on-RuntimeWarning filter and corrupt the residues."""
        max_q = 2**31 - 1
        chunk = kernels.lazy_reduction_chunk(max_q)
        num_digits = 3
        factors = np.full((num_digits, 1, 4), max_q - 1, dtype=np.int64)
        pairs = np.full((2, num_digits, 1, 4), max_q - 1, dtype=np.int64)
        mod_col = np.array([[max_q]], dtype=np.int64)
        want = (num_digits * pow(max_q - 1, 2, max_q)) % max_q
        for forced in (chunk, 1, 2):
            got = kernels.get("ks_inner")(factors, pairs, mod_col, forced)
            assert got.shape == (2, 1, 4)
            assert np.all(got == want)

    def test_boundary_chunk_no_overflow_in_stacked_kernel(self):
        """Same worst-case drive for ks_inner_stacked (shared digits
        against a key stack, (C, K, O, N) output layout)."""
        max_q = 2**31 - 1
        chunk = kernels.lazy_reduction_chunk(max_q)
        num_digits, num_offsets = 3, 5
        digits = np.full((num_digits, 1, 4), max_q - 1, dtype=np.int64)
        keys = np.full(
            (num_offsets, 2, num_digits, 1, 4), max_q - 1, dtype=np.int64
        )
        mod_col = np.array([[max_q]], dtype=np.int64)
        want = (num_digits * pow(max_q - 1, 2, max_q)) % max_q
        for forced in (chunk, 1, 2):
            got = kernels.get("ks_inner_stacked")(digits, keys, mod_col, forced)
            assert got.shape == (2, 1, num_offsets, 4)
            assert np.all(got == want)

    def test_stacked_kernel_chunks_agree(self):
        """Random-data equality of ks_inner_stacked at every chunking
        against a materialize-then-sum reference."""
        from repro.kernels import ops

        rng = np.random.default_rng(5)
        digits = rng.integers(0, 2**29, size=(4, 6, 16), dtype=np.int64)
        keys = rng.integers(0, 2**29, size=(3, 2, 4, 6, 16), dtype=np.int64)
        mod_col = rng.integers(2**28, 2**29, size=(6, 1)).astype(np.int64)
        ref = np.moveaxis(
            (digits[None, None] * keys).sum(axis=2) % mod_col, 0, 2
        )
        for chunk in (8, 2, 1):
            got = ops.ks_inner_stacked_numpy(digits, keys, mod_col, chunk)
            assert np.array_equal(got, ref)


# ---------------------------------------------------------------------------
# Naive references (independent of the kernels module)
# ---------------------------------------------------------------------------
def naive_hoisted_raw(ctx, ct, offsets):
    """Per-offset rotate_hoisted_raw: the seed's loop, kernel-free."""
    digits = ctx._ks_decompose(ct.c1, ct.level)
    ks_chain = ctx._ks_chain(ct.level)
    mod_col = ctx.basis.moduli_column(ks_chain)
    n = ctx.params.ring_degree
    out = {}
    for offset in sorted(offsets, key=galois_offset_key):
        exponent = ctx.galois_offset_exponent(offset)
        key = ctx.galois_key(exponent, max_level=ct.level)
        perm = galois_eval_permutation(n, exponent)
        ba = ctx._key_tensors(key, ct.level)
        # Digit counts at toy scale fit one lazy pass: plain product-sum.
        acc = (digits[..., perm] * ba).sum(axis=1) % mod_col
        out[offset] = (ct.c0.automorphism(exponent), acc)
    return out


def assert_raw_equal(got, want):
    assert set(got) == set(want)
    for offset in want:
        rot0_w, acc_w = want[offset]
        rot0_g, acc_g = got[offset]
        assert np.array_equal(rot0_g.data, rot0_w.data)
        assert np.array_equal(np.asarray(acc_g), acc_w)


# ---------------------------------------------------------------------------
# Stacked rotate_hoisted_raw
# ---------------------------------------------------------------------------
class TestStackedHoistedRaw:
    @pytest.mark.parametrize("level_drop", [0, 1, 2])
    @pytest.mark.parametrize(
        "steps",
        [
            [1, 3, 7],
            [1, ("conj", 0), ("conj", 5)],
            [2, 5, ("conj", 2), 9, ("conj", 0)],
        ],
    )
    def test_bit_exact_vs_per_offset_loop(self, toy_backend, steps, level_drop):
        ctx = toy_backend.context
        ct = toy_backend.encode_encrypt(np.linspace(-1, 1, toy_backend.slot_count))
        ct = toy_backend.level_down(ct, ct.level - level_drop)
        got = ctx.rotate_hoisted_raw(ct, steps)
        want = naive_hoisted_raw(ctx, ct, set(got))
        assert_raw_equal(got, want)

    def test_alpha3_partial_digit_group(self):
        backend = ToyBackend(
            toy_parameters(
                ring_degree=128,
                max_level=5,
                num_special_primes=3,
                ks_alpha=3,
                scale_bits=18,
            ),
            seed=13,
        )
        ctx = backend.context
        ct = backend.encode_encrypt(np.linspace(-1, 1, backend.slot_count))
        # level 3 -> 4 limbs -> dnum 2 with a partial (1-limb) group.
        ct = backend.level_down(ct, 3)
        got = ctx.rotate_hoisted_raw(ct, [1, 5, ("conj", 1)])
        assert_raw_equal(got, naive_hoisted_raw(ctx, ct, set(got)))

    def test_forced_chunk_fallback(self, toy_backend):
        ctx = toy_backend.context
        ct = toy_backend.encode_encrypt(np.linspace(-1, 1, toy_backend.slot_count))
        baseline = ctx.rotate_hoisted_raw(ct, [1, 4, 6])
        forced = ctx.rotate_hoisted_raw(ct, [1, 4, 6], _max_chunk=1)
        assert_raw_equal(forced, baseline)

    def test_compressed_keys_at_level_bound(self, toy_backend):
        ctx = toy_backend.context
        ct = toy_backend.encode_encrypt(np.linspace(-1, 1, toy_backend.slot_count))
        bound = 2
        ct = toy_backend.level_down(ct, bound)
        steps = [1, 3, ("conj", 1)]
        for step in steps:
            ctx.generate_compressed_galois_key(
                ctx.galois_offset_exponent(step), max_level=bound
            )
        got = ctx.rotate_hoisted_raw(ct, steps)
        assert_raw_equal(got, naive_hoisted_raw(ctx, ct, set(got)))

    def test_stacked_key_cache_survives_key_regeneration(self, toy_backend):
        """The stacked key tensor cache is id-validated: regenerating a
        switching key must invalidate the stack, not serve stale rows."""
        ctx = toy_backend.context
        ct = toy_backend.encode_encrypt(np.linspace(-1, 1, toy_backend.slot_count))
        steps = [2, 6]
        first = ctx.rotate_hoisted_raw(ct, steps)
        again = ctx.rotate_hoisted_raw(ct, steps)
        assert_raw_equal(again, first)
        # Force-replace one key object (same exponent, fresh pairs).
        exponent = ctx.galois_offset_exponent(2)
        del ctx.keys.galois[exponent]
        ctx.galois_key(exponent, max_level=ct.level)
        regen = ctx.rotate_hoisted_raw(ct, steps)
        assert_raw_equal(regen, naive_hoisted_raw(ctx, ct, set(regen)))

    def test_single_offset_path_matches_stack(self, toy_backend):
        ctx = toy_backend.context
        ct = toy_backend.encode_encrypt(np.linspace(-1, 1, toy_backend.slot_count))
        single = ctx.rotate_hoisted_raw(ct, [5])
        multi = ctx.rotate_hoisted_raw(ct, [5, 1])
        rot0_s, acc_s = single[5]
        rot0_m, acc_m = multi[5]
        assert np.array_equal(rot0_s.data, rot0_m.data)
        assert np.array_equal(np.asarray(acc_s), np.asarray(acc_m))


# ---------------------------------------------------------------------------
# Grouped fused matvec / rotate-sum (toy)
# ---------------------------------------------------------------------------
def _matvec_terms(backend, num_in, num_out, offs):
    rng = np.random.default_rng(3)
    terms = {}
    for bo in range(num_out):
        for bi in range(num_in):
            for off in offs[(bo + bi) % len(offs)]:
                terms[(bo, bi, off)] = rng.uniform(
                    -1, 1, backend.slot_count
                )
    return terms


class TestGroupedFusedMatvec:
    OFFS = [[0, 1, 3], [0, ("conj", 1), 2], [1, ("conj", 0)]]

    def test_forced_chunk_fallback_bit_exact(self, toy_backend):
        cts = [
            toy_backend.encode_encrypt(np.linspace(-1, 1, toy_backend.slot_count)),
            toy_backend.encode_encrypt(np.linspace(1, -1, toy_backend.slot_count)),
        ]
        terms = _matvec_terms(toy_backend, 2, 3, self.OFFS)
        scale = toy_backend.params.scale
        base = toy_backend._matvec_fused_no_charge(cts, terms, 3, scale)
        forced = toy_backend._matvec_fused_no_charge(
            cts, terms, 3, scale, _max_chunk=1
        )
        for got, want in zip(forced, base):
            assert np.array_equal(got.c0.data, want.c0.data)
            assert np.array_equal(got.c1.data, want.c1.data)


# ---------------------------------------------------------------------------
# Simulator batched gathers
# ---------------------------------------------------------------------------
class TestSimBatchedGathers:
    def test_matvec_matches_roll_loop(self):
        backend = SimBackend(toy_parameters(ring_degree=256), noise_free=True)
        cts = [
            backend.encode_encrypt(np.linspace(-1, 1, backend.slot_count)),
            backend.encode_encrypt(np.cos(np.arange(backend.slot_count))),
        ]
        offs = [[0, 1, 3], [("conj", 2), 5], [0, ("conj", 0)]]
        terms = _matvec_terms(backend, 2, 3, offs)
        outs = backend._matvec_fused_no_charge(
            cts, terms, 3, backend.params.scale
        )
        for bo, out in enumerate(outs):
            want = np.zeros(backend.slot_count)
            bo_terms = sorted(
                (
                    (bi, off)
                    for (bo2, bi, off) in terms
                    if bo2 == bo
                ),
                key=lambda t: (t[0], galois_offset_key(t[1])),
            )
            for bi, off in bo_terms:
                vec = terms[(bo, bi, off)]
                step = off[1] if isinstance(off, tuple) else off
                want = want + vec * np.roll(cts[bi].values, -step)
            assert np.array_equal(out.values, want)

    def test_rotate_sum_matches_roll_loop(self):
        backend = SimBackend(toy_parameters(ring_degree=256), noise_free=True)
        ct = backend.encode_encrypt(np.sin(np.arange(backend.slot_count)))
        steps = [1, 4, 9]
        out = backend._rotate_sum_no_charge(ct, steps)
        want = ct.values.copy()
        for step in steps:
            want = want + np.roll(ct.values, -step)
        assert np.array_equal(out.values, want)


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------
class TestTelemetry:
    def test_ledger_snapshot_reports_backend(self):
        assert kernels.active_backend() == "numpy"
        assert OpLedger().snapshot()["kernel_backend"] == "numpy"

    def test_backend_property(self, toy_backend):
        assert toy_backend.kernel_backend == "numpy"
