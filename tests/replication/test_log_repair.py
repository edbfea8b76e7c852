"""KV log repair, reached by directed schedules (ROADMAP item 18(b)).

No matrix cell runs the takeover pull: the supervisor nominates the
longest log its survey sees, so a nominee has nothing to pull unless the
survey missed a longer one.  The schedule below makes it miss one.  The
other 18(b) shapes (a primary that dies before commit with one backup
ahead, the old primary returning with an uncommitted suffix) are open.

Hand mutations, each applied to a copy and seen failing this test:

* ``KvReplica._pull_log`` returning ``True`` before its fetch loop — the
  nominee promotes without the suffix: no ``kv.sync`` of it before its
  ``kv.promote``.
* the ``MSG_FETCH`` server branch answering every fetch with an empty
  batch — the pull never reaches the granter's length, so every round
  of the nominee's takeover gives up and it is never promoted.
"""

from repro.chaos.scenario import NodeCrash, Scenario, TargetedDrop, chaos_config
from repro.replication.consistency import check_kv_consistency
from repro.workloads import build_workload

#: replica1 stops hearing the primary 100 ms before the primary's node
#: power-fails, so it ends an entry behind replica2; the primary's own
#: WAL loses its unsynced tail.  Every survey answer of replica2 is then
#: lost, so the supervisor nominates from the two shorter logs, and the
#: nominee learns of replica2's entry from its VOTE grant.
SURVEY_MISSES_THE_LONGEST = Scenario(
    "survey_misses_the_longest",
    (
        TargetedDrop(
            900_000.0, ptype="request", src="replica0", dst="replica1",
            count=50,
        ),
        NodeCrash(1_000_000.0, role="replica0"),
        TargetedDrop(
            1_000_000.0, ptype="accept", src="replica2", dst="supervisor",
            count=100,
        ),
    ),
)


def test_a_nominee_pulls_the_suffix_its_survey_did_not_see():
    built = build_workload("kvstore_supervised", seed=1, config=chaos_config())
    SURVEY_MISSES_THE_LONGEST.run(built)
    trace = built.net.sim.trace
    records = trace.records
    longest = built.mid_of("replica2")
    [nomination, *_] = trace.select("kv.takeover_sent")
    nominee = nomination["target"]
    assert nominee != longest and nomination["candidates"] == 2
    [promote] = trace.select("kv.promote", mid=nominee, epoch=2)
    recovered = trace.select("kv.recover", mid=nominee)[-1]
    assert (recovered["source"], recovered["entries"]) == ("wal", 5)
    # The pull, at the instant of the promotion and before it: the
    # nominee fetches from its commit point and reaches replica2's 6.
    [pulled] = [
        r for r in trace.select("kv.sync", mid=nominee)
        if recovered.time < r.time <= promote.time
    ]
    assert records.index(pulled) < records.index(promote)
    assert (pulled["from_index"], pulled["length"]) == (
        recovered["commit"], 6,
    )
    assert promote["length"] == 7  # the pulled log and the barrier
    # The pulled write commits in the epoch it was written in, not as a
    # client's retry in the new one.
    [applied] = trace.select("kv.apply", mid=nominee, index=5)
    assert applied["epoch"] == 1
    assert check_kv_consistency(records) == []
