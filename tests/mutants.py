"""Mutation checks: each mutant changes one exact snippet of src/, and named tests must fail.

Run from the repository root (standard library and pytest only):

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants

For each mutant the runner copies src/ to a temporary directory, replaces the
snippet there (refusing one that does not occur exactly once, so a refactor
that moves the code must update its mutant) and runs `pytest -x` on the
mutant's test node ids with that copy first on PYTHONPATH. A pytest exit of 1
(a test failed) kills the mutant; 0 means it survived; any other exit is an
error. The command exits 1 unless every mutant it ran was killed. pytest does
not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str              # relative to src/
    snippet: str           # must occur exactly once in file
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, at least one of which must fail


MUTANTS = (
    Mutant(
        "kv_policy_drops_one_layer_late", "metok/toy_llm.py",
        "        if layer >= drop_layer and c > cache.text_len:\n",
        "        if layer > drop_layer and c > cache.text_len:\n",
        ("tests/test_toy_llm.py::TestKvPolicyAndDecode::test_drop_matches_neg_inf_masking",
         "tests/test_acceptance.py::test_criterion_4_softmax_exclusion_identity"),
    ),
    Mutant(
        "kv_drop_layer_off_by_one", "metok/schedule.py",
        'return cfg.layer_boundaries[0] if cfg.stage_enabled("decode")',
        'return cfg.layer_boundaries[0] + 1 if cfg.stage_enabled("decode")',
        ("tests/test_schedule.py::TestKvKeepMask::test_counts_hand_case",
         "tests/test_accounting.py::TestStageToggleMatrix::test_each_toggle_moves_only_its_stage"),
    ),
    Mutant(
        "prefill_projects_k_q_v", "metok/toy_llm.py",
        "    wq, wk, wv = np.split(w_qkv, 3, axis=1)\n",
        "    wk, wq, wv = np.split(w_qkv, 3, axis=1)\n",
        ("tests/test_toy_llm.py::TestBlockedAttention::test_criterion_8_fixture_matches_dense_prefill",),
    ),
    Mutant(
        "cosines_row_dot_by_einsum", "metok/kernels.py",
        "        return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]\n",
        '        return np.einsum("ij,ij->i", x, y)\n',
        ("tests/test_kernels.py::TestCosines::test_bit_identical_to_cosine",
         "tests/test_vision.py::TestSegmentEvents::test_flatten_sims_are_the_cosine_of_each_flat_pair"),
    ),
    Mutant(
        "cosines_unclamped", "metok/kernels.py",
        "    return np.fmin(1.0, np.fmax(-1.0, dots(a, b) / (na * nb)))",
        "    return dots(a, b) / (na * nb)",
        ("tests/test_kernels.py::TestCosines::test_bit_identical_to_cosine",),
    ),
    Mutant(
        "rms_norm_eps_changed", "metok/toy_llm.py",
        "_NORM_EPS = 1e-6\n",
        "_NORM_EPS = 1e-5\n",
        ("tests/test_toy_llm.py::test_rms_norm_hand_value",),
    ),
    Mutant(
        "attention_workers_share_slot_0", "metok/toy_llm.py",
        "scores[slot, :, : stop - start, :stop]",
        "scores[0, :, : stop - start, :stop]",
        ("tests/test_toy_llm.py::TestBlockedAttention::test_head_chunks_bit_identical_to_one_chunk",
         "tests/test_toy_llm.py::TestBlockedAttention::test_prefill_bit_identical_at_any_cpu_count"),
    ),
    Mutant(
        "row_piece_workers_share_slot_0", "metok/toy_llm.py",
        "work(r, scratch[slot, : r.stop - r.start])",
        "work(r, scratch[0, : r.stop - r.start])",
        ("tests/test_toy_llm.py::test_row_pieces_on_different_workers_get_their_own_scratch",
         "tests/test_toy_llm.py::TestBlockedAttention::test_prefill_bit_identical_at_any_cpu_count"),
    ),
    Mutant(
        "layer_0_updates_its_input_in_place", "metok/toy_llm.py",
        "out=a[r]), w.shape[1])\n    return a\n",
        "out=x[r]), w.shape[1])\n    return x\n",
        # Q's buffer outlives the layer, so an extra (n, d) array is held
        ("tests/test_toy_llm.py::TestBlockedAttention::test_working_set_is_the_cache_plus_scratch[1]",),
    ),
    Mutant(
        "final_layer_projects_q_from_row_n_minus_2", "metok/toy_llm.py",
        "(text_len if layer in boundaries else 1)",
        "(text_len if layer in boundaries else 2)",
        ("tests/test_toy_llm.py::TestPrefill::test_final_layer_queries_only_the_rows_it_reads",),
    ),
    Mutant(
        "softmax_never_shifts", "metok/toy_llm.py",
        "_EXP_SAFE = 600.0\n",
        "_EXP_SAFE = float(\"inf\")\n",
        ("tests/test_toy_llm.py::TestSoftmaxShift::test_scores_past_exps_range_take_the_shifted_path",),
    ),
    Mutant(
        "softmax_always_shifts", "metok/toy_llm.py",
        "    return _score_bound(model, layer) > _EXP_SAFE\n",
        "    return True\n",
        ("tests/test_toy_llm.py::TestSoftmaxShift::"
         "test_fast_on_the_mid_and_criterion_8_models_shifted_at_d_256",),
    ),
    Mutant(
        "masked_numerators_not_zeroed", "metok/toy_llm.py",
        "        np.copyto(diag, 0.0, where=masked)\n",
        "        pass\n",
        ("tests/test_toy_llm.py::TestBlockedAttention::test_matches_dense_oracle",
         "tests/test_toy_llm.py::TestBlockedAttention::test_text_rows_match_dense_rows"),
    ),
    Mutant(
        "stride_rule_ignores_alpha", "metok/vision.py",
        "np.where(key_frame, scaled_stride(s1, alpha), scaled_stride(s2, alpha))",
        "np.where(key_frame, s1, s2)",
        ("tests/test_acceptance.py::test_criterion_3_token_count_closed_form",),
    ),
    Mutant(
        "event_may_key_no_frame", "metok/vision.py",
        "count = max(1, ceil_scaled(beta, len(ev)))",
        "count = ceil_scaled(beta, len(ev))",
        ("tests/test_vision.py::TestSelectKeys::test_tiny_beta_still_keys_a_frame_in_every_event",),
    ),
    Mutant(
        "mebf_trailing_bytes_allowed", "metok/data_io.py",
        "        if payload > 4 * count:\n",
        "        if payload > 4 * count + 4:\n",
        ("tests/test_data_io.py::TestMebfErrors::test_trailing_bytes",),
    ),
    Mutant(
        "mebf_frame_budget_ignored", "metok/data_io.py",
        "(math.prod(dims[1:]), MAX_FRAME_ELEMENTS)",
        "(math.prod(dims[1:]), MAX_ELEMENTS)",
        ("tests/test_data_io.py::TestMebfErrors::test_dims_one_over_each_budget_are_refused[frame]",),
    ),
    Mutant(
        "config_boundaries_may_repeat", "metok/data_io.py",
        "if not (0 <= l1 < l2 < l3):",
        "if not (0 <= l1 <= l2 <= l3):",
        ("tests/test_data_io.py::TestRunConfig::test_out_of_range_is_config_error[boundaries_equal]",),
    ),
    Mutant(
        "config_ratios_may_be_zero", "metok/data_io.py",
        "            if not 0.0 < v <= 1.0:\n",
        "            if not 0.0 <= v <= 1.0:\n",
        ("tests/test_data_io.py::TestRunConfig::test_out_of_range_is_config_error[r_zero]",
         "tests/test_data_io.py::TestRunConfig::test_out_of_range_is_config_error[beta_zero]"),
    ),
    Mutant(
        "frames_checked_for_nan_only", "metok/data_io.py",
        "if not all(np.isfinite(self.tokens[i]).all() for i in bad):",
        "if not all(~np.isnan(self.tokens[i]).all() for i in bad):",
        ("tests/test_data_io.py::TestMebfErrors::test_non_finite_payload[inf]",),
    ),
    Mutant(
        "decode_context_off_by_one", "metok/accounting.py",
        "np.arange(1, trace.decode_steps + 1, dtype=np.float64)",
        "np.arange(trace.decode_steps, dtype=np.float64)",
        ("tests/test_accounting.py::TestPipelineFlops::test_decode_hand_sum",),
    ),
    Mutant(
        "kv_policy_keeps_the_text_head", "metok/toy_llm.py",
        "tail = np.arange(c - cache.text_len, c)",
        "tail = np.arange(cache.text_len)",
        ("tests/test_schedule.py::TestKvKeepMask::test_text_never_removed",
         "tests/test_toy_llm.py::TestKvPolicyAndDecode::test_drop_matches_neg_inf_masking"),
    ),
    Mutant(
        "decode_writes_generated_kv_one_row_early", "metok/toy_llm.py",
        "k[c + s], v[c + s] = qkv[d : 2 * d], qkv[2 * d :]",
        "k[c + s - 1], v[c + s - 1] = qkv[d : 2 * d], qkv[2 * d :]",
        # step 0 overwrites the prompt's last entry
        ("tests/test_toy_llm.py::TestKvPolicyAndDecode::test_decode_leaves_cache_unchanged",),
    ),
    Mutant(
        "prompt_mass_skips_normalisation", "metok/toy_llm.py",
        "[0, c - cache.text_len], axis=-1) / total[:, 0]",
        "[0, c - cache.text_len], axis=-1)",
        ("tests/test_toy_llm.py::TestAttentionRatios::"
         "test_uniform_attention_mass_proportional_to_counts",),
    ),
    Mutant(
        "scaled_stride_rounds_down", "metok/vision.py",
        "int(math.floor(stride / alpha + 0.5))",
        "int(math.floor(stride / alpha))",
        ("tests/test_vision.py::TestScaledStride::test_rounding_with_floor",),
    ),
    Mutant(
        "event_score_max_ignored", "metok/vision.py",
        'agg = np.mean if event_score == "mean" else np.max',
        "agg = np.mean",
        ("tests/test_vision.py::TestScoreRelevance::test_event_aggregation_modes",),
    ),
    Mutant(
        "ceil_scaled_without_epsilon", "metok/kernels.py",
        "math.ceil(ratio * n - 1e-9)",
        "math.ceil(ratio * n)",
        ("tests/test_schedule.py::TestRetentionRatio::test_keep_counts_reference_case",),
    ),
    Mutant(
        "top_k_unstable_sort", "metok/kernels.py",
        'np.argsort(-scores, kind="stable")',
        'np.argsort(-scores, kind="quicksort")',
        ("tests/test_kernels.py::TestTopKStable::test_ties_past_the_small_array_sorts",
         "tests/test_vision.py::TestSegmentEvents::test_matches_brute_force_oracle"),
    ),
    Mutant(
        "manifest_omits_an_artifact", "metok/cli.py",
        "for name, data in files.items()}",
        "for name, data in list(files.items())[:-1]}",
        ("tests/test_cli.py::test_manifest_digests_recomputable[compress]",),
    ),
    Mutant(
        "hash_keeps_mapped_pages", "metok/cli.py",
        "                if _RELEASE is not None:\n"
        "                    mapped.madvise(_RELEASE, start, _HASH_SLICE)\n",
        "",
        ("tests/test_cli.py::test_sha256_holds_one_slice_of_a_mapped_input",),
    ),
    Mutant(
        "hash_skips_last_slice", "metok/cli.py",
        "for start in range(0, len(mapped), _HASH_SLICE):",
        "for start in range(0, len(mapped) - _HASH_SLICE, _HASH_SLICE):",
        ("tests/test_cli.py::test_sha256_is_hashlib_of_the_bytes[2slice+3]",),
    ),
    Mutant(
        "importance_takes_the_max", "metok/schedule.py",
        "return cols.mean(axis=(1, 2))",
        "return cols.max(axis=(1, 2))",
        ("tests/test_schedule.py::TestTokenImportance::test_mean_over_queries",),
    ),
)


def apply(mutant: Mutant, src: Path) -> None:
    """Replace the mutant's snippet in the copy of src/ at src."""
    path = src / mutant.file
    text = path.read_text()
    count = text.count(mutant.snippet)
    if count != 1:
        raise ValueError(f"{mutant.name}: snippet occurs {count} times in {mutant.file}, not once")
    path.write_text(text.replace(mutant.snippet, mutant.replacement))


def run(mutant: Mutant) -> str:
    """'killed', 'survived' or 'error: ...' for one mutant."""
    with tempfile.TemporaryDirectory(prefix="metok-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        apply(mutant, src)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        where = subprocess.run([sys.executable, "-c", "import metok; print(metok.__file__)"],
                               cwd=REPO, env=env, capture_output=True, text=True)
        if not where.stdout.startswith(str(src)):
            return f"error: the tests would import metok from {where.stdout.strip() or where.stderr}"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=REPO, env=env, capture_output=True, text=True)
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "survived"
    return f"error: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in [by_name[name] for name in argv] or MUTANTS:
        t0 = time.perf_counter()
        try:
            outcome = run(mutant)
        except ValueError as err:  # a snippet that does not occur exactly once
            outcome = f"error: {err}"
        failed += outcome != "killed"
        print(f"{mutant.name}: {outcome} ({time.perf_counter() - t0:.1f} s)", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
