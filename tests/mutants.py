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
        "        if layer >= drop_layer:\n",
        "        if layer > drop_layer:\n",
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
        "    weights = np.split(w_qkv, 3, axis=1)\n",
        "    weights = [np.split(w_qkv, 3, axis=1)[i] for i in (1, 0, 2)]\n",
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
