from pathlib import Path

import pytest

from check import check_output, reference_text
from workloads import DEFAULT_SEED, WORKLOADS, plan

COMMANDS = {c.id: c for w in WORKLOADS for c in plan(w, Path("."))[1]}


def _replace_cell(text: str, row: int, col: int, fn) -> str:
    lines = text.splitlines()
    body = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    cells = lines[body[row]].split(",")
    cells[col] = fn(cells[col])
    lines[body[row]] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("cmd_id", sorted(COMMANDS))
def test_reference_passes_its_own_check(cmd_id):
    assert check_output(COMMANDS[cmd_id], reference_text(cmd_id), DEFAULT_SEED) == []


def test_flags_a_perturbed_scan_cell():
    cmd, ref = COMMANDS["scan"], reference_text("scan")
    col = ref.splitlines()[5].split(",").index("V2_all")
    bumped = _replace_cell(ref, 1, col, lambda c: repr(float(c) * (1 + 1e-8)))
    assert len(check_output(cmd, bumped, DEFAULT_SEED)) == 1
    within = _replace_cell(ref, 1, col, lambda c: repr(float(c) * (1 + 2e-10)))
    assert check_output(cmd, within, DEFAULT_SEED) == []


def test_scan_deviation_columns_need_only_stay_small():
    cmd, ref = COMMANDS["scan"], reference_text("scan")
    col = ref.splitlines()[5].split(",").index("parseval_dev")
    assert check_output(cmd, _replace_cell(ref, 1, col, lambda c: "5e-10"), DEFAULT_SEED) == []
    assert check_output(cmd, _replace_cell(ref, 1, col, lambda c: "2e-9"), DEFAULT_SEED) != []


def test_flags_a_perturbed_w_hat_value():
    cmd, ref = COMMANDS["wtransform-n32"], reference_text("wtransform-n32")
    # the value has magnitude < 10, so 1e-5 changes its 6th significant digit
    off = _replace_cell(ref, 1, 1, lambda c: repr(float(c) + 1e-5 * (1 if float(c) > 0 else -1)))
    assert check_output(cmd, off, DEFAULT_SEED) != []
    close = _replace_cell(ref, 1, 1, lambda c: repr(float(c) * (1 + 1e-8)))
    assert check_output(cmd, close, DEFAULT_SEED) == []


def test_sampled_catalog_at_another_seed_checks_only_seed_free_claims():
    cmd = COMMANDS["lemma3-check-p2-k6"]
    assert cmd.sampled
    other = reference_text(cmd.id).replace(f"# seed={DEFAULT_SEED}", "# seed=7")
    assert check_output(cmd, other, 7) == []
    assert check_output(cmd, other, DEFAULT_SEED) != []
    broken = _replace_cell(other, 3, -1, lambda c: "0")
    assert check_output(cmd, broken, 7) != []


def test_exhaustive_catalog_is_exact_at_any_seed():
    cmd = COMMANDS["lemma3-check-p2-k3"]
    assert not cmd.sampled
    other = reference_text(cmd.id).replace(f"# seed={DEFAULT_SEED}", "# seed=7")
    assert check_output(cmd, other, 7) == []
    assert check_output(cmd, _replace_cell(other, 2, 6, lambda c: str(int(c) + 1)), 7) != []
