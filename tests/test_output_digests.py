"""Byte identity against recorded references: every file of the jobs in
``output_digests.JOBS`` must hash to its digest in
``tests/data/output_digests.json``."""

import contextlib
import io
import json

import pytest

from output_digests import DIGESTS, environment_stamp, run_job

RECORDED = json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("name", sorted(RECORDED["jobs"]))
def test_outputs_match_recorded_digests(tmp_path, name):
    job = RECORDED["jobs"][name]
    with contextlib.redirect_stdout(io.StringIO()):
        digests = run_job(job["command"], job["config"], tmp_path)
    moved = sorted(f for f in digests.keys() | job["digests"].keys()
                   if digests.get(f) != job["digests"].get(f))
    if not moved:
        return
    stamp = environment_stamp()
    changed = {k: (v, stamp.get(k)) for k, v in RECORDED["environment"].items()
               if stamp.get(k) != v}
    if changed:
        pytest.xfail(f"digests of {moved} moved; the environment differs "
                     f"from the recorded one in {changed}")
    pytest.fail(f"{name}: the digests of {moved} moved.  If the change is "
                f"meant, rerun tests/output_digests.py and say why in "
                f"CHANGES.md")
