"""The batched score kernels and the packed sort key.

The vectorized engine scores a whole candidate bag with one NumPy
expression per paper policy and, for integer priorities, orders it by a
single packed int64 key.  These tests pin each batched expression to the
scalar formula it replaces, and the packed key to the three-key
``lexsort`` order it stands in for.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.policies.kernels import MEDFKernel, MRSFKernel, SEDFKernel, pack_keys


def _random_pool(seed=7, n=257):
    """Per-row and per-CEI float columns, one CEI per row."""
    rng = np.random.default_rng(seed)
    medf_open_f = rng.integers(0, 12, n).astype(np.float64)
    return SimpleNamespace(
        npr_finish_f=rng.integers(0, 400, n).astype(np.float64),
        npc_rank_f=rng.integers(1, 12, n).astype(np.float64),
        npc_captured_f=rng.integers(0, 11, n).astype(np.float64),
        npc_medf_open_f=medf_open_f,
        npc_medf_s_f=(medf_open_f * rng.integers(1, 400, n)).astype(np.float64),
    )


def _score_rows(kernel, pool, chronon):
    rows = np.arange(pool.npr_finish_f.size)
    return kernel.score_rows(pool, rows, rows, chronon)


class TestNumpyFormulas:
    """The batched kernels compute exactly the scalar paper formulas."""

    def test_sedf_matches_scalar(self):
        pool = _random_pool()
        scores = _score_rows(SEDFKernel(), pool, 50)
        for finish, score in zip(pool.npr_finish_f, scores):
            assert score == finish - 50 + 1  # s_edf_value at T=50

    def test_mrsf_matches_scalar(self):
        pool = _random_pool()
        kernel = MRSFKernel()
        scores = _score_rows(kernel, pool, 0)
        np.testing.assert_array_equal(
            scores, pool.npc_rank_f - pool.npc_captured_f
        )
        for cidx, score in enumerate(scores):
            assert score == kernel.score_cei(pool, cidx, 0)

    def test_medf_matches_aggregates(self):
        pool = _random_pool()
        kernel = MEDFKernel()
        scores = _score_rows(kernel, pool, 37)
        np.testing.assert_array_equal(
            scores, pool.npc_medf_s_f - pool.npc_medf_open_f * 37
        )
        for cidx, score in enumerate(scores):
            assert score == kernel.score_cei(pool, cidx, 37)

    def test_pack_keys_orders_like_lexsort(self):
        rng = np.random.default_rng(7)
        prio = rng.integers(-(1 << 19), 1 << 19, 257)
        static = rng.integers(0, 1 << 41, 257)
        packed = pack_keys(prio, static)
        np.testing.assert_array_equal(
            np.argsort(packed, kind="stable"),
            np.lexsort((static, prio)),
        )
