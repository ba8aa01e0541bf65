#!/usr/bin/env python3
"""Unit tests for scripts/bench_compare.py (stdlib only; CI runs this).

    python3 scripts/test_bench_compare.py
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare  # noqa: E402


def report(
    sweep=None,
    micro=None,
    phase=None,
    resil=None,
    scaling=None,
    memory=None,
    serving=None,
    commit="deadbeef",
):
    records = []
    for (mesh, queue, threads, bio_ms), sps in (sweep or {}).items():
        records.append(
            {
                "name": "end_to_end_sweep",
                "config": {
                    "mesh": mesh,
                    "queue": queue,
                    "threads": threads,
                    "bio_ms": bio_ms,
                },
                "metrics": {"spikes_per_sec": sps},
            }
        )
    for case, ns in (micro or {}).items():
        records.append(
            {
                "name": "queue_microbench",
                "config": {"case": case},
                "metrics": {"calendar_ns_per_op": ns},
            }
        )
    for (threads, bio_ms), metrics in (phase or {}).items():
        records.append(
            {
                "name": "phase_breakdown",
                "config": {"threads": threads, "bio_ms": bio_ms},
                "metrics": dict(metrics),
            }
        )
    for cfg, metrics in scaling or []:
        records.append({"name": "scaling", "config": dict(cfg), "metrics": dict(metrics)})
    for (mesh, arm), metrics in (memory or {}).items():
        records.append(
            {
                "name": "memory",
                "config": {"mesh": mesh, "arm": arm},
                "metrics": dict(metrics),
            }
        )
    records.extend(resil or [])
    records.extend(serving or [])
    return {"experiment": "EX", "commit": commit, "records": records}


def scaling_row(chips=65536, cores=1114112, synapses=2**30, bps=1.4):
    """One synthetic E20 scaling row at full-machine scale."""
    return (
        {"mesh": "256x256", "chips": chips, "machine_cores": cores, "threads": 1},
        {"synapses": synapses, "bytes_per_synapse": bps, "wall_ms": 9000.0},
    )


def memory_arms(lazy_bps=1.3, eager_bps=4.5, mesh="64x64"):
    """Paired lazy/eager loader-footprint rows."""
    return {
        (mesh, "lazy"): {"bytes_per_synapse": lazy_bps, "resident_mb": 90.0},
        (mesh, "eager"): {"bytes_per_synapse": eager_bps, "resident_mb": 300.0},
    }


def resil_records(
    curve=((0.0, 1.0), (0.2, 0.9)),
    gain=0.3,
    load_cut=0.5,
    bit_exact=True,
    with_recovery=True,
    with_campaign=True,
):
    """Synthetic resilience-report records (E19 shape)."""
    records = [
        {
            "name": "delivery_vs_failure_rate",
            "config": {"failure_rate": rate, "policy": "none", "forks": 4},
            "metrics": {"delivery_ratio_mean": ratio, "delivery_ratio_min": ratio},
        }
        for rate, ratio in curve
    ]
    if with_recovery:
        records.append(
            {
                "name": "repair_recovery",
                "config": {"failure_rate": 0.35},
                "metrics": {
                    "repair_link_gain": gain,
                    "reroute_gain": gain,
                    "reroute_load_cut": load_cut,
                },
            }
        )
    if with_campaign:
        records.append(
            {
                "name": "campaign",
                "config": {"seed": 1},
                "metrics": {"determinism_bit_exact": bit_exact},
            }
        )
    return records


def serving_records(
    levels=(1, 4, 16),
    warm=0.94,
    jps=1500.0,
    p50=1.0,
    p99=5.0,
    evictions=20,
    rehydrates=18,
    bit_exact=True,
    rejected=15,
    deterministic=True,
    with_churn=True,
    with_determinism=True,
    with_quota=True,
):
    """Synthetic serving-report records (E21 shape)."""
    records = [
        {
            "name": "serving",
            "config": {"arm": "steady", "clients": c, "models": 3, "jobs": 48},
            "metrics": {
                "jobs_per_sec": jps + 10.0 * c,
                "p50_latency_ms": p50,
                "p99_latency_ms": p99,
                "warm_hit_ratio": warm,
                "evictions": 0,
                "rehydrates": 0,
            },
        }
        for c in levels
    ]
    if with_churn:
        records.append(
            {
                "name": "serving",
                "config": {"arm": "churn", "clients": 4, "models": 3, "jobs": 48},
                "metrics": {
                    "jobs_per_sec": jps / 3.0,
                    "p50_latency_ms": p50 * 4,
                    "p99_latency_ms": p99 * 4,
                    "warm_hit_ratio": 0.5,
                    "evictions": evictions,
                    "rehydrates": rehydrates,
                },
            }
        )
    if with_determinism:
        records.append(
            {
                "name": "serving_determinism",
                "config": {"clients": 4, "jobs": 48},
                "metrics": {
                    "eviction_bit_exact": bit_exact,
                    "evictions": evictions,
                    "rehydrates": rehydrates,
                },
            }
        )
    if with_quota:
        records.append(
            {
                "name": "serving_quota",
                "config": {"tenants": 2, "submissions": 28},
                "metrics": {
                    "admitted": 13,
                    "rejected_total": rejected,
                    "deterministic": deterministic,
                },
            }
        )
    return records


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)
        self._summary = tempfile.NamedTemporaryFile(
            mode="r", suffix=".md", delete=False
        )
        self.addCleanup(lambda: os.unlink(self._summary.name))
        os.environ["GITHUB_STEP_SUMMARY"] = self._summary.name

    def write(self, name, rep):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(rep, f)
        return path

    def run_main(self, argv):
        """Runs bench_compare.main, returning the exit code (0 if it
        returns normally)."""
        try:
            bench_compare.main(argv)
        except SystemExit as e:
            return e.code or 0
        return 0

    def sweep_key(self):
        return ("8x8", "calendar", 4, 100)

    def test_within_bounds_passes(self):
        base = self.write("base.json", report(sweep={self.sweep_key(): 1000.0}))
        new = self.write("new.json", report(sweep={self.sweep_key(): 950.0}))
        self.assertEqual(self.run_main([new, base]), 0)

    def test_sweep_regression_fails(self):
        base = self.write("base.json", report(sweep={self.sweep_key(): 1000.0}))
        new = self.write("new.json", report(sweep={self.sweep_key(): 700.0}))
        self.assertEqual(self.run_main([new, base]), 1)

    def test_micro_regression_fails(self):
        # Lower is better for ns/op: 100 -> 130 is a 30% regression.
        base = self.write("base.json", report(micro={"dense": 100.0}))
        new = self.write("new.json", report(micro={"dense": 130.0}))
        self.assertEqual(self.run_main([new, base, "--kind", "micro"]), 1)

    def test_micro_improvement_passes(self):
        base = self.write("base.json", report(micro={"dense": 100.0}))
        new = self.write("new.json", report(micro={"dense": 60.0}))
        self.assertEqual(self.run_main([new, base, "--kind", "micro"]), 0)

    def test_missing_baseline_file_is_exit_2(self):
        new = self.write("new.json", report(sweep={self.sweep_key(): 1.0}))
        missing = os.path.join(self.dir.name, "BENCH_e99.json")
        self.assertEqual(self.run_main([new, missing]), 2)

    def test_corrupt_json_is_exit_2(self):
        path = os.path.join(self.dir.name, "bad.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write("{not json")
        new = self.write("new.json", report(sweep={self.sweep_key(): 1.0}))
        self.assertEqual(self.run_main([new, path]), 2)

    def test_missing_row_is_exit_2_by_default(self):
        # Regression guard: a vanished sweep row used to be silently
        # skipped, letting a gate "pass" while comparing nothing.
        base = self.write(
            "base.json",
            report(sweep={self.sweep_key(): 1000.0, ("8x8", "heap", 1, 100): 900.0}),
        )
        new = self.write("new.json", report(sweep={self.sweep_key(): 1000.0}))
        self.assertEqual(self.run_main([new, base]), 2)

    def test_missing_row_allowed_with_flag(self):
        base = self.write(
            "base.json",
            report(sweep={self.sweep_key(): 1000.0, ("8x8", "heap", 1, 100): 900.0}),
        )
        new = self.write("new.json", report(sweep={self.sweep_key(): 1000.0}))
        self.assertEqual(self.run_main([new, base, "--allow-missing-rows"]), 0)

    def test_no_comparable_rows_is_exit_2(self):
        base = self.write("base.json", report(micro={"dense": 1.0}))
        new = self.write("new.json", report(sweep={self.sweep_key(): 1.0}))
        self.assertEqual(self.run_main([new, base]), 2)

    def test_chain_compares_consecutive_pairs_and_writes_summary(self):
        a = self.write("a.json", report(sweep={self.sweep_key(): 1000.0}))
        b = self.write("b.json", report(sweep={self.sweep_key(): 1100.0}))
        c = self.write("c.json", report(sweep={self.sweep_key(): 1050.0}))
        self.assertEqual(self.run_main(["--chain", a, b, c]), 0)
        with open(self._summary.name, encoding="utf-8") as f:
            text = f.read()
        self.assertIn("Benchmark trajectory", text)
        self.assertIn("| baseline | new |", text)
        # Two pairwise comparisons -> two data rows.
        self.assertEqual(text.count("end_to_end_sweep"), 0)  # kind column says 'sweep'
        self.assertEqual(text.count("| sweep |"), 2)

    def test_chain_regression_fails(self):
        a = self.write("a.json", report(sweep={self.sweep_key(): 1000.0}))
        b = self.write("b.json", report(sweep={self.sweep_key(): 500.0}))
        self.assertEqual(self.run_main(["--chain", a, b]), 1)

    def test_chain_needs_two_reports(self):
        a = self.write("a.json", report(sweep={self.sweep_key(): 1.0}))
        self.assertEqual(self.run_main(["--chain", a]), 2)

    def phase_rows(self, w1=100.0, w4=80.0, share=0.1, ns_neuron=15.0):
        return {
            (1, 30): {
                "wall_ms": w1,
                "barrier_wait_share": 0.0,
                "ns_per_neuron": ns_neuron,
                "ns_per_synaptic_event": 45.0,
            },
            (4, 30): {
                "wall_ms": w4,
                "barrier_wait_share": share,
                "ns_per_neuron": ns_neuron,
                "ns_per_synaptic_event": 45.0,
            },
        }

    def test_perf_kind_regression_fails(self):
        # Lower is better for ns/neuron: 10 -> 14 is a 40% regression.
        base = self.write("base.json", report(phase=self.phase_rows(ns_neuron=10.0)))
        new = self.write("new.json", report(phase=self.phase_rows(ns_neuron=14.0)))
        self.assertEqual(self.run_main([new, base, "--kind", "perf"]), 1)

    def test_perf_kind_improvement_passes(self):
        base = self.write("base.json", report(phase=self.phase_rows(ns_neuron=18.0)))
        new = self.write("new.json", report(phase=self.phase_rows(ns_neuron=12.0)))
        self.assertEqual(self.run_main([new, base, "--kind", "perf"]), 0)

    def test_parallel_speedup_passes_when_threads_pay(self):
        rep = self.write("rep.json", report(phase=self.phase_rows(w1=100.0, w4=80.0)))
        self.assertEqual(self.run_main(["--parallel-speedup", rep]), 0)

    def test_parallel_speedup_fails_when_4t_is_slower(self):
        rep = self.write("rep.json", report(phase=self.phase_rows(w1=100.0, w4=100.0)))
        self.assertEqual(self.run_main(["--parallel-speedup", rep]), 1)

    def test_parallel_speedup_fails_on_barrier_share(self):
        rep = self.write(
            "rep.json", report(phase=self.phase_rows(w1=100.0, w4=80.0, share=0.9))
        )
        self.assertEqual(self.run_main(["--parallel-speedup", rep]), 1)

    def test_parallel_speedup_without_pair_is_exit_2(self):
        rep = self.write("rep.json", report(sweep={self.sweep_key(): 1.0}))
        self.assertEqual(self.run_main(["--parallel-speedup", rep]), 2)

    def test_resilience_gate_passes_on_healthy_report(self):
        rep = self.write("rep.json", report(resil=resil_records()))
        self.assertEqual(self.run_main(["--resilience", rep]), 0)

    def test_resilience_gate_fails_below_delivery_floor(self):
        # At a 0.2 failure rate the floor is 0.92 - 1.3 * 0.2 = 0.66.
        rep = self.write(
            "rep.json", report(resil=resil_records(curve=((0.0, 1.0), (0.2, 0.5))))
        )
        self.assertEqual(self.run_main(["--resilience", rep]), 1)

    def test_resilience_gate_fails_on_degraded_faultfree_bucket(self):
        # The fault-free bucket is the baseline replaying itself: anything
        # below ~1.0 means the campaign harness broke, not the fabric.
        rep = self.write(
            "rep.json", report(resil=resil_records(curve=((0.0, 0.97), (0.2, 0.9))))
        )
        self.assertEqual(self.run_main(["--resilience", rep]), 1)

    def test_resilience_gate_fails_on_nonpositive_repair_gain(self):
        rep = self.write("rep.json", report(resil=resil_records(gain=0.0)))
        self.assertEqual(self.run_main(["--resilience", rep]), 1)

    def test_resilience_gate_fails_on_nonpositive_load_cut(self):
        rep = self.write("rep.json", report(resil=resil_records(load_cut=-0.1)))
        self.assertEqual(self.run_main(["--resilience", rep]), 1)

    def test_resilience_gate_fails_on_inexact_replays(self):
        rep = self.write("rep.json", report(resil=resil_records(bit_exact=False)))
        self.assertEqual(self.run_main(["--resilience", rep]), 1)

    def test_resilience_gate_fails_without_recovery_record(self):
        rep = self.write(
            "rep.json", report(resil=resil_records(with_recovery=False))
        )
        self.assertEqual(self.run_main(["--resilience", rep]), 1)

    def test_resilience_gate_without_curve_is_exit_2(self):
        rep = self.write("rep.json", report(sweep={self.sweep_key(): 1.0}))
        self.assertEqual(self.run_main(["--resilience", rep]), 2)

    def test_resil_kind_compares_buckets_pairwise(self):
        # Higher is better for delivery ratios: 0.9 -> 0.6 regresses.
        base = self.write("base.json", report(resil=resil_records()))
        worse = self.write(
            "worse.json", report(resil=resil_records(curve=((0.0, 1.0), (0.2, 0.6))))
        )
        self.assertEqual(self.run_main([worse, base, "--kind", "resil"]), 1)
        self.assertEqual(self.run_main([base, base, "--kind", "resil"]), 0)

    def test_parallel_speedup_skips_on_one_core_host(self):
        # A 4-thread row measured on a one-core host is the 1-thread run
        # wearing a different label; comparing the two is noise. The
        # check must warn and pass, even when the "4T" wall is slower.
        phase = {
            (1, 30): {"wall_ms": 100.0, "barrier_wait_share": 0.0},
            (4, 30): {"wall_ms": 130.0, "barrier_wait_share": 0.0},
        }
        rep = {
            "experiment": "EX",
            "commit": "deadbeef",
            "records": [
                {
                    "name": "phase_breakdown",
                    "config": {"threads": t, "bio_ms": b, "host_cores": 1},
                    "metrics": dict(m),
                }
                for (t, b), m in phase.items()
            ],
        }
        path = self.write("rep.json", rep)
        self.assertEqual(self.run_main(["--parallel-speedup", path]), 0)

    def test_memory_gate_passes_at_full_scale(self):
        rep = self.write(
            "rep.json", report(scaling=[scaling_row()], memory=memory_arms())
        )
        self.assertEqual(self.run_main(["--memory", rep]), 0)

    def test_memory_gate_fails_below_scale_floors(self):
        rep = self.write(
            "rep.json",
            report(
                scaling=[scaling_row(chips=1024, cores=17408, synapses=2**24)],
                memory=memory_arms(),
            ),
        )
        self.assertEqual(self.run_main(["--memory", rep]), 1)

    def test_memory_gate_fails_when_lazy_not_smaller(self):
        rep = self.write(
            "rep.json",
            report(
                scaling=[scaling_row()],
                memory=memory_arms(lazy_bps=5.0, eager_bps=4.5),
            ),
        )
        self.assertEqual(self.run_main(["--memory", rep]), 1)

    def test_memory_gate_fails_without_paired_arms(self):
        rep = self.write("rep.json", report(scaling=[scaling_row()]))
        self.assertEqual(self.run_main(["--memory", rep]), 1)

    def test_memory_gate_without_scaling_rows_is_exit_2(self):
        rep = self.write("rep.json", report(sweep={self.sweep_key(): 1.0}))
        self.assertEqual(self.run_main(["--memory", rep]), 2)

    def test_memory_kind_compares_footprint_pairwise(self):
        # Lower is better for bytes/synapse: 1.3 -> 2.0 regresses >20%.
        base = self.write("base.json", report(memory=memory_arms(lazy_bps=1.3)))
        worse = self.write("worse.json", report(memory=memory_arms(lazy_bps=2.0)))
        self.assertEqual(self.run_main([worse, base, "--kind", "memory"]), 1)
        self.assertEqual(self.run_main([base, base, "--kind", "memory"]), 0)

    def test_serving_gate_passes_on_healthy_report(self):
        rep = self.write("rep.json", report(serving=serving_records()))
        self.assertEqual(self.run_main(["--serving", rep]), 0)

    def test_serving_gate_fails_below_warm_hit_floor(self):
        rep = self.write("rep.json", report(serving=serving_records(warm=0.5)))
        self.assertEqual(self.run_main(["--serving", rep]), 1)

    def test_serving_gate_fails_with_fewer_than_three_levels(self):
        rep = self.write(
            "rep.json", report(serving=serving_records(levels=(1, 4)))
        )
        self.assertEqual(self.run_main(["--serving", rep]), 1)

    def test_serving_gate_fails_on_inverted_latency_percentiles(self):
        # p50 above p99 means the percentile math (or the recorder) broke.
        rep = self.write(
            "rep.json", report(serving=serving_records(p50=9.0, p99=2.0))
        )
        self.assertEqual(self.run_main(["--serving", rep]), 1)

    def test_serving_gate_fails_when_churn_never_evicted(self):
        rep = self.write(
            "rep.json",
            report(serving=serving_records(evictions=0, rehydrates=0)),
        )
        self.assertEqual(self.run_main(["--serving", rep]), 1)

    def test_serving_gate_fails_without_churn_arm(self):
        rep = self.write(
            "rep.json", report(serving=serving_records(with_churn=False))
        )
        self.assertEqual(self.run_main(["--serving", rep]), 1)

    def test_serving_gate_fails_on_inexact_eviction_replay(self):
        rep = self.write(
            "rep.json", report(serving=serving_records(bit_exact=False))
        )
        self.assertEqual(self.run_main(["--serving", rep]), 1)

    def test_serving_gate_fails_when_quota_burst_rejects_nothing(self):
        rep = self.write("rep.json", report(serving=serving_records(rejected=0)))
        self.assertEqual(self.run_main(["--serving", rep]), 1)

    def test_serving_gate_fails_on_nondeterministic_quota_trace(self):
        rep = self.write(
            "rep.json", report(serving=serving_records(deterministic=False))
        )
        self.assertEqual(self.run_main(["--serving", rep]), 1)

    def test_serving_gate_fails_without_quota_record(self):
        rep = self.write(
            "rep.json", report(serving=serving_records(with_quota=False))
        )
        self.assertEqual(self.run_main(["--serving", rep]), 1)

    def test_serving_gate_without_serving_rows_is_exit_2(self):
        rep = self.write("rep.json", report(sweep={self.sweep_key(): 1.0}))
        self.assertEqual(self.run_main(["--serving", rep]), 2)

    def test_serving_kind_compares_throughput_pairwise(self):
        # Higher is better for jobs/sec: 1500 -> 1000 regresses >20%.
        base = self.write("base.json", report(serving=serving_records()))
        worse = self.write(
            "worse.json", report(serving=serving_records(jps=1000.0))
        )
        self.assertEqual(self.run_main([worse, base, "--kind", "serving"]), 1)
        self.assertEqual(self.run_main([base, base, "--kind", "serving"]), 0)

    def test_committed_e21_serving_gate_holds(self):
        # The committed serving artifact must clear its own acceptance
        # gate, exactly as CI runs it.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        e21 = os.path.join(root, "BENCH_e21.json")
        self.assertTrue(os.path.exists(e21), f"{e21} must be committed")
        self.assertEqual(self.run_main(["--serving", e21]), 0)

    def test_committed_e19_resilience_gate_holds(self):
        # The committed E19 artifact must clear its own acceptance gate,
        # exactly as CI runs it.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        e19 = os.path.join(root, "BENCH_e19.json")
        self.assertTrue(os.path.exists(e19), f"{e19} must be committed")
        self.assertEqual(self.run_main(["--resilience", e19]), 0)

    def test_committed_artifacts_chain_cleanly(self):
        # The real committed BENCH_*.json files must stay chainable (the
        # CI trajectory step depends on it). Micro rows only exist in
        # E14, so allow missing rows across the chain. E17 carries only
        # phase_breakdown rows, so it is gated pairwise against E18
        # below instead of sitting in the sweep chain.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        chain = [
            os.path.join(root, f"BENCH_e{n}.json")
            for n in (14, 15, 16, 18, 20, 21)
        ]
        for path in chain:
            self.assertTrue(os.path.exists(path), f"{path} must be committed")
        code = self.run_main(
            ["--chain", *chain, "--allow-missing-rows", "--max-regress", "0.35"]
        )
        self.assertEqual(code, 0)

    def test_committed_e20_gates_hold(self):
        # The committed scaling-study artifact must clear its own
        # acceptance gates, exactly as CI runs them: full-machine scale
        # and lazy-vs-eager footprint.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        e20 = os.path.join(root, "BENCH_e20.json")
        self.assertTrue(os.path.exists(e20), f"{e20} must be committed")
        self.assertEqual(self.run_main(["--memory", e20]), 0)

    def test_committed_e18_gates_hold(self):
        # The collected-win acceptance gates, run on the committed
        # artifacts exactly as CI does: per-loop costs vs E17 and the
        # threads-must-pay check on E18 itself.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        e17 = os.path.join(root, "BENCH_e17.json")
        e18 = os.path.join(root, "BENCH_e18.json")
        self.assertEqual(
            self.run_main([e18, e17, "--kind", "perf", "--max-regress", "0.35"]), 0
        )
        self.assertEqual(self.run_main(["--parallel-speedup", e18]), 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
