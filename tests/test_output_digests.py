"""Byte identity against recorded references: every file of the jobs in
``output_digests.JOBS`` must hash to its digest in
``tests/data/output_digests.json``, and the session's ``verify`` run must
print the recorded lines, up to wall times, and write the recorded
coefficient diff table."""

import contextlib
import io
import json

import pytest

from output_digests import DIGESTS, environment_stamp, run_job, verify_record

RECORDED = json.loads(DIGESTS.read_text())


def _moved(what):
    """A moved reference fails on the recorded environment and is an
    expected failure on any other."""
    stamp = environment_stamp()
    changed = {k: (v, stamp.get(k)) for k, v in RECORDED["environment"].items()
               if stamp.get(k) != v}
    if changed:
        pytest.xfail(f"{what} moved; the environment differs from the "
                     f"recorded one in {changed}")
    pytest.fail(f"{what} moved.  If the change is meant, rerun "
                f"tests/output_digests.py and say why in CHANGES.md")


@pytest.mark.parametrize("name", sorted(RECORDED["jobs"]))
def test_outputs_match_recorded_digests(tmp_path, name):
    job = RECORDED["jobs"][name]
    with contextlib.redirect_stdout(io.StringIO()):
        digests = run_job(job["command"], job["config"], tmp_path)
    moved = sorted(f for f in digests.keys() | job["digests"].keys()
                   if digests.get(f) != job["digests"].get(f))
    if moved:
        _moved(f"{name}: the digests of {moved}")


def test_verify_matches_recorded_lines(verify_run):
    """Every number that ``verify`` prints at seed 0 is pinned, not only
    its pass flags; wall times are masked."""
    _, printed, out, _ = verify_run
    got, want = verify_record(printed, out), RECORDED["verify"]
    assert len(got["lines"]) == len(want["lines"]) == 10
    moved = [f"line {k + 1}: {line!r}"
             for k, (line, ref) in enumerate(zip(got["lines"], want["lines"]))
             if line != ref]
    moved += [name for name, digest in got["digests"].items()
              if digest != want["digests"].get(name)]
    if moved:
        _moved(f"verify output {moved}")
