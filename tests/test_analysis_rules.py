"""Fixture tests for the static analyzer (`repro.analysis`).

Every rule gets minimal positive/negative snippets parsed from strings,
plus a mutation check: deleting the guard that makes the negative fixture
clean must flip the rule to a finding.  A final smoke test runs the whole
analyzer over the real ``src/`` tree and asserts zero unsuppressed
findings — the same bar the CI ``analysis`` job enforces.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import Project, default_rules, run_rules
from repro.analysis.__main__ import main as analysis_main

SRC = Path(__file__).resolve().parent.parent / "src"


def findings_for(sources: dict[str, str], rule: str):
    project = Project.from_sources(sources)
    return run_rules(project, default_rules(), only={rule})


def unsuppressed(sources: dict[str, str], rule: str):
    return [f for f in findings_for(sources, rule) if not f.suppressed]


# ---------------------------------------------------------------------------
# collective-lockstep
# ---------------------------------------------------------------------------


def test_lockstep_flags_collective_in_one_branch_arm():
    found = unsuppressed(
        {
            "src/repro/dataflow/branchy.py": (
                "def f(comm, values):\n"
                "    if values.size > 0:\n"
                "        total = comm.allreduce(int(values[0]))\n"
                "    else:\n"
                "        total = 0\n"
                "    return total\n"
            )
        },
        "collective-lockstep",
    )
    assert len(found) == 1
    assert found[0].line == 2
    assert "allreduce" in found[0].message


def test_lockstep_flags_early_return_before_collective():
    found = unsuppressed(
        {
            "src/repro/dataflow/early.py": (
                "def g(comm, values):\n"
                "    if values.size == 0:\n"
                "        return 0\n"
                "    return comm.allreduce(int(values[0]))\n"
            )
        },
        "collective-lockstep",
    )
    assert len(found) == 1
    assert "early return" in found[0].message


def test_lockstep_flags_data_dependent_loops():
    found = unsuppressed(
        {
            "src/repro/dataflow/loopy.py": (
                "def h(comm, values):\n"
                "    for i in range(values.size):\n"
                "        comm.barrier()\n"
                "    count = 0\n"
                "    while count < values.size:\n"
                "        comm.allreduce(count)\n"
                "        count = count + 1\n"
            )
        },
        "collective-lockstep",
    )
    messages = "\n".join(f.message for f in found)
    assert len(found) == 2
    assert "for-loop" in messages and "while-loop" in messages


def test_lockstep_flags_nonuniform_break_in_collective_loop():
    found = unsuppressed(
        {
            "src/repro/dataflow/windowed.py": (
                "def w(comm, values):\n"
                "    while True:\n"
                "        comm.allreduce(1)\n"
                "        if values.size > 2:\n"
                "            break\n"
            )
        },
        "collective-lockstep",
    )
    assert len(found) == 1
    assert "loop exit" in found[0].message


def test_lockstep_accepts_comm_guards_and_replicated_conditions():
    clean = {
        "src/repro/dataflow/guarded.py": (
            "def f(comm, values):\n"
            "    if comm is None or comm.size == 1:\n"
            "        return int(values[0])\n"
            "    return comm.allreduce(int(values[0]))\n"
            "\n"
            "def g(comm, values):\n"
            "    n = comm.allreduce(int(values.size))\n"
            "    if n == 0:\n"
            "        return 0\n"
            "    return comm.exscan(int(values.size))\n"
        )
    }
    assert unsuppressed(clean, "collective-lockstep") == []


def test_lockstep_mutation_deleting_allreduce_guard_flips_to_finding():
    # Same function as the clean `g` above, but the condition is now the
    # raw per-PE size instead of its allreduce: one PE can return early.
    mutated = {
        "src/repro/dataflow/guarded.py": (
            "def g(comm, values):\n"
            "    n = int(values.size)\n"
            "    if n == 0:\n"
            "        return 0\n"
            "    return comm.exscan(int(values.size))\n"
        )
    }
    found = unsuppressed(mutated, "collective-lockstep")
    assert len(found) == 1
    assert "early return" in found[0].message


def test_lockstep_branching_on_settled_verdict_is_replicated():
    # The adaptive-escalation idiom: the branch condition flows from a
    # function whose distributed return path ends in a broadcast, so it is
    # replicated no matter how non-uniform the arguments were.
    clean = {
        "src/repro/dataflow/adaptive.py": (
            "def verdict(comm, values):\n"
            "    if comm is None:\n"
            "        return bool(values.size)\n"
            "    ok = bool(values.size)\n"
            "    return comm.bcast(ok, root=0)\n"
            "\n"
            "def check(comm, values):\n"
            "    ok = verdict(comm, values)\n"
            "    if not ok:\n"
            "        return comm.allreduce(int(values.size))\n"
            "    return 0\n"
        )
    }
    assert unsuppressed(clean, "collective-lockstep") == []


_RECEIVER_DECODES = (
    "class Checker:\n"
    "    def __init__(self, width):\n"
    "        self.width = width\n"
    "\n"
    "    def decode(self, payload):\n"
    "        return payload[: self.width]\n"
    "\n"
    "    def verdicts(self, diff, comm):\n"
    "        return self.decode(comm.{collective}(diff))\n"
    "\n"
    "def repair(comm, width, values):\n"
    "    checker = Checker(width)\n"
    "    for attempt in range(3):\n"
    "        diff = values if comm.rank == 0 else values[:0]\n"
    "        if checker.verdicts(diff, comm):\n"
    "            break\n"
)


def test_lockstep_branching_on_receiver_decoded_allreduce_is_replicated():
    # The sum checker's verdict idiom: a method decodes the bytes every PE
    # got from one allreduce with its own configuration, so a loop may
    # exit on the verdict however per-PE the arguments were.
    clean = {
        "src/repro/dataflow/settle.py": _RECEIVER_DECODES.format(
            collective="allreduce"
        )
    }
    assert unsuppressed(clean, "collective-lockstep") == []


def test_lockstep_mutation_receiver_decoding_a_reduce_flips_to_finding():
    # Same loop, but the method decodes a reduce, whose combined bytes
    # only the root holds: PEs can leave the loop in different rounds.
    mutated = {
        "src/repro/dataflow/settle.py": _RECEIVER_DECODES.format(
            collective="reduce"
        )
    }
    found = unsuppressed(mutated, "collective-lockstep")
    assert len(found) == 1
    assert "loop exit" in found[0].message


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_determinism_flags_naked_numpy_and_stdlib_rng():
    found = unsuppressed(
        {
            "src/repro/faults/sloppy.py": (
                "import numpy as np\n"
                "import random\n"
                "from random import randrange\n"
                "def f(seed):\n"
                "    a = np.random.default_rng(seed)\n"
                "    b = random.random()\n"
                "    c = randrange(10)\n"
                "    return a, b, c\n"
            )
        },
        "determinism",
    )
    assert [f.line for f in found] == [5, 6, 7]


def test_determinism_sanctions_rng_module_and_generator_methods():
    clean = {
        # The sanctioned module itself may touch numpy.random.
        "src/repro/util/rng.py": (
            "import numpy as np\n"
            "def default_generator(seed):\n"
            "    return np.random.default_rng(int(seed))\n"
        ),
        # Consuming a generator someone passed in is fine.
        "src/repro/workloads/consumer.py": (
            "def sample(rng, n):\n"
            "    return rng.integers(0, 10, n)\n"
        ),
    }
    assert unsuppressed(clean, "determinism") == []


def test_determinism_mutation_inlining_default_rng_flips_to_finding():
    mutated = {
        "src/repro/workloads/consumer.py": (
            "import numpy as np\n"
            "def sample(seed, n):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng.integers(0, 10, n)\n"
        )
    }
    found = unsuppressed(mutated, "determinism")
    assert len(found) == 1
    assert found[0].line == 3


# ---------------------------------------------------------------------------
# overflow-discipline
# ---------------------------------------------------------------------------


def test_overflow_flags_unguarded_sum_in_core():
    found = unsuppressed(
        {
            "src/repro/core/acc.py": (
                "def fingerprint(values):\n"
                "    return values.sum()\n"
            )
        },
        "overflow-discipline",
    )
    assert len(found) == 1
    assert "unguarded .sum()" in found[0].message


def test_overflow_accepts_all_three_guard_disciplines():
    clean = {
        "src/repro/core/guarded.py": (
            "import numpy as np\n"
            "def with_magnitude_bound(values):\n"
            "    m = _max_magnitude(values)\n"
            "    return values.sum(dtype=np.float64), m\n"
            "def with_modular_reduction(values):\n"
            "    return int(values.sum()) % 2147483647\n"
            "def with_deferred_mod(values):\n"
            "    t = values.sum()\n"
            "    return t % 2147483647\n"
            "def with_32bit_split(values):\n"
            "    lo = values & 0xFFFFFFFF\n"
            "    hi = values >> 32\n"
            "    return int(lo.sum()) + (int(hi.sum()) << 32)\n"
            "def with_python_sum(chunks):\n"
            "    return sum(int(c) for c in chunks)\n"
        )
    }
    assert unsuppressed(clean, "overflow-discipline") == []


def test_overflow_ignores_modules_outside_core():
    sources = {
        "src/repro/dataflow/acc.py": (
            "def fingerprint(values):\n    return values.sum()\n"
        )
    }
    assert unsuppressed(sources, "overflow-discipline") == []


def test_overflow_mutation_deleting_magnitude_guard_flips_to_finding():
    mutated = {
        "src/repro/core/guarded.py": (
            "def with_magnitude_bound(values):\n"
            "    return values.sum()\n"  # bound + dtype promotion deleted
        )
    }
    found = unsuppressed(mutated, "overflow-discipline")
    assert len(found) == 1


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------


def test_inline_pragma_suppresses_with_justification():
    findings = findings_for(
        {
            "src/repro/core/acc.py": (
                "def fingerprint(values):\n"
                "    return values.sum()  # repro-lint: disable=overflow-discipline -- bounded by caller\n"
            )
        },
        "overflow-discipline",
    )
    assert len(findings) == 1
    assert findings[0].suppressed
    assert findings[0].justification == "bounded by caller"


def test_comment_line_pragma_covers_next_line():
    findings = findings_for(
        {
            "src/repro/core/acc.py": (
                "def fingerprint(values):\n"
                "    # repro-lint: disable=overflow-discipline -- bounded by caller\n"
                "    return values.sum()\n"
            )
        },
        "overflow-discipline",
    )
    assert [f.suppressed for f in findings] == [True]


def test_file_pragma_suppresses_whole_module():
    findings = findings_for(
        {
            "src/repro/core/acc.py": (
                "# repro-lint: disable-file=overflow-discipline -- scratch module\n"
                "def f(values):\n"
                "    return values.sum()\n"
                "def g(values):\n"
                "    return values.cumsum()\n"
            )
        },
        "overflow-discipline",
    )
    assert len(findings) == 2
    assert all(f.suppressed for f in findings)


def test_pragma_for_other_rule_does_not_suppress():
    findings = findings_for(
        {
            "src/repro/core/acc.py": (
                "def fingerprint(values):\n"
                "    return values.sum()  # repro-lint: disable=determinism -- wrong rule\n"
            )
        },
        "overflow-discipline",
    )
    assert [f.suppressed for f in findings] == [False]


# ---------------------------------------------------------------------------
# CLI + smoke over the real tree
# ---------------------------------------------------------------------------


def test_analyzer_smoke_real_src_tree_is_clean():
    project = Project.from_paths([SRC])
    findings = run_rules(project, default_rules())
    assert [f for f in findings if not f.suppressed] == []


#: Collectives the callgraph must keep seeing in the window settles and
#: repairs.  A closure's collectives count toward the function that
#: defines it: ``settle_reduce_window``'s ``_operation`` runs the
#: ``alltoall`` of ``reduce_by_key``.
_WINDOW_COLLECTIVES = {
    ("repro.dataflow.repair", "repair_reduce_window"): {"allreduce"},
    ("repro.dataflow.repair", "repair_sum_window"): {"allreduce"},
    ("repro.dataflow.repair", "repair_zip_window"): {
        "allgather", "allreduce", "alltoall", "exscan",
    },
    ("repro.dataflow.streaming", "settle_zip_window"): {
        "allgather", "allreduce", "alltoall", "exscan",
    },
    ("repro.dataflow.streaming", "settle_reduce_window"): {
        "allgather", "allreduce", "alltoall",
    },
    ("repro.dataflow.streaming", "settle_sum_window"): {"allreduce"},
}


def test_callgraph_sees_window_settle_and_repair_collectives():
    from repro.analysis.callgraph import get_callgraph

    graph = get_callgraph(Project.from_paths([SRC]))
    summaries = {
        (f.module_dotted, f.qualname): f.transitive for f in graph.functions
    }
    for name, expected in _WINDOW_COLLECTIVES.items():
        assert name in summaries, name
        assert expected <= summaries[name], (name, summaries[name])


def test_cli_strict_exit_codes(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "core" / "acc.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def f(values):\n    return values.sum()\n")
    assert analysis_main([str(tmp_path / "src")]) == 0  # informative mode
    assert analysis_main([str(tmp_path / "src"), "--strict"]) == 1
    capsys.readouterr()


def test_cli_json_output_and_artifact(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "core" / "acc.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def f(values):\n    return values.sum()\n")
    out = tmp_path / "findings.json"
    code = analysis_main(
        [str(tmp_path / "src"), "--format", "json", "--output", str(out)]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["unsuppressed"] == 1
    on_disk = json.loads(out.read_text())
    assert on_disk["findings"][0]["rule"] == "overflow-discipline"


def test_cli_rejects_unknown_rule(tmp_path):
    with pytest.raises(SystemExit):
        analysis_main([str(tmp_path), "--rules", "no-such-rule"])


def test_cli_rule_selection_runs_only_named_rules(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "core" / "acc.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        "import numpy as np\n"
        "def f(values, seed):\n"
        "    rng = np.random.default_rng(seed)\n"
        "    return values.sum()\n"
    )
    assert (
        analysis_main([str(tmp_path / "src"), "--rules", "determinism", "--strict"])
        == 1
    )
    output = capsys.readouterr().out
    assert "determinism" in output
    assert "overflow" not in output
