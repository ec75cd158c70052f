"""The ``branch-identity`` group names the cell a branched run got wrong."""

from repro.runner.sweep import SweepRunner
from repro.verify import branch as branch_identity


def test_planted_mismatch_names_the_cell(monkeypatch):
    real_run = SweepRunner.run

    def planting(self, jobs):
        results = real_run(self, jobs)
        if self.branch:  # the path under test, not the serial replay
            results[3] = results[0]
        return results

    monkeypatch.setattr(SweepRunner, "run", planting)
    monkeypatch.setattr(branch_identity, "worker_counts", lambda smoke: [1])
    violations, _boots, checks = branch_identity.check_branch_identity(
        smoke=True)
    assert checks == len(branch_identity.identity_matrix(smoke=True))
    assert len(violations) == 1, violations
    assert violations[0].startswith("fork/jobs=1: cell 3 ("), violations
    assert "seed=23" in violations[0]
    assert "branched payload differs from the serial replay" in violations[0]

