"""Tests for result integrity (§2) and the CLI runner."""

import numpy as np
import pytest

from repro.comm.context import Context
from repro.core.integrity import check_replicated, replicated_digest


class TestReplicatedDigest:
    def test_deterministic(self):
        a = np.arange(10)
        assert replicated_digest(1, a) == replicated_digest(1, a)

    def test_seed_sensitivity(self):
        a = np.arange(10)
        assert replicated_digest(1, a) != replicated_digest(2, a)

    def test_content_sensitivity(self):
        assert replicated_digest(1, np.arange(10)) != replicated_digest(
            1, np.arange(10) + 1
        )

    def test_dtype_sensitivity(self):
        """Same bytes, different dtype, must differ (shape/dtype are data)."""
        a = np.array([1], dtype=np.int64)
        b = a.view(np.uint64)
        assert replicated_digest(1, a) != replicated_digest(1, b)

    def test_multiple_arrays_order_sensitive(self):
        a, b = np.arange(3), np.arange(3, 6)
        assert replicated_digest(1, a, b) != replicated_digest(1, b, a)


class TestCheckReplicated:
    def test_sequential_trivially_true(self):
        assert check_replicated(None, np.arange(5)).accepted

    @pytest.mark.parametrize("p", [2, 4])
    def test_identical_replicas_accepted(self, p):
        ctx = Context(p)
        verdicts = ctx.run(
            lambda comm: check_replicated(comm, np.arange(100), seed=3).accepted
        )
        assert verdicts == [True] * p

    def test_divergent_replica_rejected_everywhere(self):
        ctx = Context(4)

        def run(comm):
            data = np.arange(100)
            if comm.rank == 2:
                data = data.copy()
                data[50] ^= 1  # one bit flipped on one PE
            return check_replicated(comm, data, seed=3).accepted

        assert ctx.run(run) == [False] * 4


class TestRunnerCLI:
    def test_report_sections(self, tmp_path, capsys):
        from repro.experiments.runner import main

        out = tmp_path / "report.md"
        code = main(
            [
                "--trials",
                "20",
                "--elements",
                "5000",
                "--sections",
                "table2",
                "table3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert "Table 2" in text and "Table 3" in text
        assert "1e-04" in text or "1e-4" in text

    def test_report_to_stdout(self, capsys):
        from repro.experiments.runner import main

        assert main(["--sections", "table2", "--out", "-"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_fig_sections_small(self, tmp_path):
        from repro.experiments.runner import main

        out = tmp_path / "r.md"
        code = main(
            ["--trials", "10", "--sections", "fig4", "--out", str(out)]
        )
        assert code == 0
        assert "Fig 4" in out.read_text()

    #: Every section the tests above skip, but fig3: its 96 cells each
    #: regenerate the 50 000-pair workload (~1.5 s at any trial count),
    #: so it runs in the bench smoke only.
    HEADINGS = {
        "fig5": "## Fig 5 — permutation-checker accuracy (20 trials/cell)",
        "table1": "## Table 1 — checker communication volume",
        "table5": "## Table 5 — checker overhead",
        "multiseed": "## Multi-seed batched checking (8 seeds)",
        "streaming": "## Streaming — window count vs checker wire volume",
    }

    @pytest.mark.parametrize("section", sorted(HEADINGS))
    def test_measured_sections_small(self, tmp_path, section):
        from repro.experiments.runner import main

        out = tmp_path / "r.md"
        code = main(
            ["--trials", "20", "--elements", "5000", "--sections", section,
             "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert self.HEADINGS[section] in text
        assert f"_({section}: " in text
