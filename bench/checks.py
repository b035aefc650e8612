"""Correctness of every op's output, and a negative test that the check can fail.

An output is a dict with per-run ("baseline", "compressed") layer lengths and
cached positions, the report's FLOPs and KV totals, the analytic prediction of
those three ("expected"), and for toy runs the decoded tokens and logits.

Three checks, each on every op:
  identity   the measured lengths, cache and totals equal the analytic
             accounting of the same token stream;
  repeat     the op equals the first op run on the same point, bit for bit;
  reference  for the default seed, the op equals the stored reference output
             made by the seed commit: tokens, lengths and totals exactly, and
             logits within LOGITS_TOL max-abs (the tolerance of acceptance
             criterion 4, which leaves room to reorder float summation).
Identity and repeat hold for any seed, so a held-out seed is still checked.
"""

from __future__ import annotations

import copy

import numpy as np

LOGITS_TOL = 1e-9
RUNS = ("baseline", "compressed")
REPORT_KEYS = ("flops_baseline", "flops_compressed", "kv_baseline", "kv_compressed")


def identity(out: dict) -> list[str]:
    exp = out["expected"]
    problems = [f"identity: {part} differs from analytic accounting"
                for part in ("lengths", "cached") if out[part] != exp[part]]
    problems += [f"identity: report {key} {out['report'][key]!r} != {exp['report'][key]!r}"
                 for key in REPORT_KEYS if out["report"][key] != exp["report"][key]]
    return problems


def differences(out: dict, other: dict, logits_tol: float, label: str) -> list[str]:
    """Ways out differs from other; logits may differ by at most logits_tol max-abs."""
    problems = [f"{label}: {part} differ" for part in ("lengths", "cached", "report", "tokens")
                if out.get(part) != other.get(part)]
    for run in RUNS if "logits" in out else ():
        a, b = out["logits"][run], other["logits"][run]
        if a.shape != b.shape:
            problems.append(f"{label}: {run} logits shape {a.shape} != {b.shape}")
        elif not np.max(np.abs(a - b), initial=0.0) <= logits_tol:
            problems.append(f"{label}: {run} logits off by {np.max(np.abs(a - b)):.3g}")
    return problems


def check(out: dict, first: dict | None, ref: dict | None) -> list[str]:
    """Every problem found in one op's output; empty means the op passed."""
    problems = out.get("problems", []) + identity(out)
    if first is not None:
        problems += differences(out, first, 0.0, "repeat")
    if ref is not None:
        problems += differences(out, ref, LOGITS_TOL, "reference")
    return problems


def save_reference(path, outputs: list[dict]) -> None:
    """Store the checked parts of one output per point as a flat .npz archive."""
    arrays = {}
    for point, out in enumerate(outputs):
        for part in ("lengths", "cached", "tokens", "logits"):
            for run, value in out.get(part, {}).items():
                arrays[f"{point}.{part}.{run}"] = np.asarray(value)
        arrays[f"{point}.flops"] = np.array([out["report"][k] for k in REPORT_KEYS[:2]])
        arrays[f"{point}.kv"] = np.array([out["report"][k] for k in REPORT_KEYS[2:]])
    np.savez_compressed(path, **arrays)


def load_reference(path) -> list[dict]:
    """Inverse of save_reference."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    outputs: dict[int, dict] = {}
    for name, value in arrays.items():
        point, _, rest = name.partition(".")
        out = outputs.setdefault(int(point), {"report": {}})
        if rest in ("flops", "kv"):
            out["report"].update(zip(REPORT_KEYS[:2] if rest == "flops" else REPORT_KEYS[2:],
                                     value.tolist()))
        else:
            part, run = rest.split(".")
            out.setdefault(part, {})[run] = value if part == "logits" else value.tolist()
    return [outputs[p] for p in sorted(outputs)]


def _perturbations(out: dict) -> dict[str, dict]:
    """Copies of a correct output, each wrong in one small way."""
    wrong = {}
    if "tokens" in out:
        flipped = copy.deepcopy(out)
        tokens = flipped["tokens"]["compressed"]
        tokens[-1] = (tokens[-1] + 1) % 256
        wrong["flipped_token"] = flipped
        shifted = copy.deepcopy(out)
        shifted["logits"]["compressed"] = shifted["logits"]["compressed"] + 1e-6
        wrong["logits_off_1e-6"] = shifted
    else:
        longer = copy.deepcopy(out)
        longer["lengths"]["compressed"][-1] += 1
        wrong["layer_length_off_1"] = longer
        costlier = copy.deepcopy(out)
        costlier["report"]["flops_compressed"] *= 1.0 + 1e-6
        wrong["flops_off_1e-6"] = costlier
    return wrong


def negative_test(out: dict, ref: dict | None) -> dict[str, bool]:
    """Feed perturbed copies of a passing output to the repeat and reference checks.

    Returns, per perturbation and check, whether the check counted it failed;
    every value must be True for the run's correctness claim to stand.
    """
    rejected = {}
    for what, wrong in _perturbations(out).items():
        rejected[f"{what}/repeat"] = bool(differences(wrong, out, 0.0, "repeat"))
        if ref is not None:
            rejected[f"{what}/reference"] = bool(differences(wrong, ref, LOGITS_TOL, "reference"))
    return rejected
