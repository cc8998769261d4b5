"""Reports are byte-identical to the recorded ones.

``golden_reports.json`` maps each spec to the sha256 of its report as
``report_json(..., include_wall_clock=False)`` writes it, recorded with the
numpy version it names. Floating-point results pass through BLAS (``@``) and
LAPACK (``polyfit``), so another numpy build or machine may differ; a
mismatch names both numpy versions and the machine, and gives the new digest
to record once the change to the report is intended.
"""

import copy
import hashlib
import json
import pathlib
import platform

import numpy as np
import pytest

from pacverify import cli

GOLDEN = json.loads(pathlib.Path(__file__).with_name("golden_reports.json").read_text())


@pytest.mark.parametrize("entry", GOLDEN["reports"], ids=[e["name"] for e in GOLDEN["reports"]])
def test_report_digest_is_recorded(entry):
    report = cli.run_experiment(cli.ExperimentSpec.from_doc(copy.deepcopy(entry["spec"])))
    digest = hashlib.sha256(cli.report_json(report, include_wall_clock=False).encode()).hexdigest()
    assert digest == entry["sha256"], (
        f"report {entry['name']} has sha256 {digest}: recorded with numpy {GOLDEN['numpy']}, "
        f"running numpy {np.__version__} on {platform.machine()}")
