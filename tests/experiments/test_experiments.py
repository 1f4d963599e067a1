"""Integration tests: every experiment runs and shows the paper's shape.

Expensive experiments run at reduced scale; assertions target the
*qualitative* findings (orderings, crossovers, anomalies) the paper
reports, not absolute numbers.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import ConfigurationError
from repro.experiments import EXPERIMENTS, experiment_ids, run_experiment
from repro.experiments.base import ExperimentResult, scaled
from repro.runner.cache import RESULTS_EPOCH
from repro.specs import spec_digest


#: ``result.digest()`` of every experiment this module runs, at the
#: scale it runs it, so a change that moves any result fails here
#: rather than only in ``BENCH_experiments.json``. An entry changes
#: only with a change meant to move that result.
RESULT_DIGESTS = {
    # at scale 1.0
    "table1": "34f23eb95fa60d5ffd845f2ef0e60d007d287c69c7df2bd332ea97929616601c",
    "fig2": "9c50c5b1121fb37824690740420a66d6ee19e9c22677957c1195f9bfcb8216c5",
    "fig3": "ff998e74c97710874127a4b3a99dd646b7d85debad8cf518bc3752f6759fb5b6",
    "fig15": "1a3cf56f2cf31057b23cf0bfeab5e05970ab58af842970daeabf4fd43e4c2d06",
    "fig16": "732d24cbfe63a8717120296a38c01fb8f772a58c8b751d87e16cd118b1f22945",
    "fig17": "bda2deb72cd52277fb09e743df28ba91676be66dc0e5bdd7b3ef6e5c3719751b",
    "fig18": "db81811c3384869c192f85f17ee8fd60683c8b0ad35cd8b0cb076c08b9efa7db",
    "wsweep": "ec830cc6573d2212324eb5618e35986a0f6f8312830b725fef50b86824fdfb57",
    "thrash": "b909166b6ecff96c37c05731fc194f94fa390afa69924050bdc0d5046a78c034",
    "policydelta": "47706b9618aa2d73327bf5966094625982613ef430466430816e0e6fe51b7974",
    # at scale 0.6
    "fig4": "cd668b2e711b69c4b33be06d82a74d713148cbb42de63b310bb75a686378d612",
    "fig5": "c44a9c76267d43ef98118208323bec30153863916a2e8d63f345fe6a69a60718",
    "fig6": "c56f70ae37053c0eab9ee3788cee6d62e6f7005e7dd15befb4ddc577f9d9b575",
    "fig7": "3d76b5f3cf016a88e2a5facf9b39cd10dfe2c87ea7d8fc04a64c52925560b5ce",
    "optane": "02610bf737ca7ae1f9eb6b39e5f8d6fd7f82ca4917f1d2128ce5d6567def2532",
    # full-system runs, at the scales of _FULL_SYSTEM_RUNS
    "fig11": "95e3281232e9b5c586d80278386e853a9947450bd14b899b855695290fd3bd69",
    "fig10": "2e5714b64c278bc93fb2b9cd99a5021f432c10d3028cd31f6145461c0465b423",
    "ablation": "127fe23c611e204e7e3a1d028fb74f59834a5b1acdb693e657e9630fde92da04",
    "fig14": "bb07f27c23eb51f0e9444939b58172a0689f8a6495f621079160a2cfe4cf83e6",
    "openpiton": "4fa4d9a53d99deecfb6465b9c49e0e8ef3f02d77d4aab3f57e6806e9c2e63999",
}


#: The results epoch paired with a hash of :data:`RESULT_DIGESTS`.
#: Cached entries are keyed by scenario, not by code, so a change that
#: moves a golden must also bump ``RESULTS_EPOCH`` and re-pin this pair.
EPOCH_PIN = (
    2,
    "8f799e94a39ddcbcb2013d261a534dc6b805495de3ede378c9db5d9b28e7bb0b",
)


def assert_golden(result: ExperimentResult) -> None:
    """The result's digest equals its entry in :data:`RESULT_DIGESTS`."""
    assert result.digest() == RESULT_DIGESTS[result.experiment_id]


def test_result_goldens_are_pinned_to_the_results_epoch():
    assert (RESULTS_EPOCH, spec_digest(RESULT_DIGESTS)) == EPOCH_PIN, (
        "RESULT_DIGESTS changed under the same RESULTS_EPOCH: bump "
        "RESULTS_EPOCH in repro/runner/cache.py so cached results from "
        "the old code are recomputed, then re-pin EPOCH_PIN"
    )


class TestInfrastructure:
    def test_registry_complete(self):
        expected = {
            "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
            "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
            "fig17", "fig18", "openpiton", "optane", "ablation",
            "wsweep", "thrash", "policydelta",
        }
        assert set(experiment_ids()) == expected
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError):
            run_experiment("fig99")

    def test_result_formatting_and_csv(self, tmp_path):
        result = ExperimentResult("x", "demo", columns=["a", "b"])
        result.add(a=1, b=2.5)
        result.note("hello")
        table = result.format_table()
        assert "demo" in table and "hello" in table
        path = tmp_path / "out.csv"
        result.to_csv(path)
        assert path.read_text().startswith("a,b")

    def test_unknown_column_rejected(self):
        result = ExperimentResult("x", "demo", columns=["a"])
        with pytest.raises(ConfigurationError):
            result.add(bogus=1)

    def test_scaled_helper(self):
        assert scaled(100, 0.5) == 50
        assert scaled(2, 0.1, minimum=1) == 1
        with pytest.raises(ConfigurationError):
            scaled(10, 0)


class TestCheapExperiments:
    def test_table1_calibration_within_one_percent(self):
        result = run_experiment("table1")
        assert_golden(result)
        assert len(result.rows) == 8
        assert all(row["max_abs_err_pct"] < 1.0 for row in result.rows)

    def test_fig2_emits_family_and_stream_lines(self):
        result = run_experiment("fig2")
        assert_golden(result)
        series = {row["series"] for row in result.rows}
        assert {"curve", "stream_min", "stream_max"} <= series

    def test_fig3_all_platforms_present(self):
        result = run_experiment("fig3")
        assert_golden(result)
        platforms = {row["platform"] for row in result.rows}
        assert len(platforms) == 8

    def test_optane_support(self):
        result = run_experiment("optane", scale=0.6)
        assert_golden(result)
        sources = {row["source"] for row in result.rows}
        assert sources == {"preset", "probed-device"}
        assert any("converges" in note for note in result.notes)

    def test_fig17_signs(self):
        result = run_experiment("fig17")
        assert_golden(result)
        notes = " ".join(result.notes)
        assert "lower" in notes and "higher" in notes

    def test_fig18_shape(self):
        result = run_experiment("fig18")
        assert_golden(result)
        assert len(result.rows) == 29
        deltas = result.column("delta_pct")
        utils = result.column("utilization_pct")
        assert utils == sorted(utils)
        assert deltas[0] < 0  # low-bandwidth: remote slower
        assert deltas[-1] > 0  # high-bandwidth: remote faster

    def test_fig15_saturated_majority(self):
        result = run_experiment("fig15")
        assert_golden(result)
        scores = result.column("stress_score")
        assert all(0 <= s <= 1 for s in scores)
        assert any("saturated" in note for note in result.notes)

    def test_fig16_iterations_and_stress_split(self):
        result = run_experiment("fig16")
        assert_golden(result)
        iterations = {row["iteration"] for row in result.rows}
        assert iterations == {0, 1}
        head = next(r for r in result.rows if r["phase"] == "spmv_head")
        tail = next(r for r in result.rows if r["phase"] == "spmv_tail")
        assert head["mean_stress"] > tail["mean_stress"]


class TestCacheModelExperiments:
    def test_wsweep_latency_staircase(self):
        result = run_experiment("wsweep")
        assert_golden(result)
        latencies = result.column("latency_ns")
        assert latencies == sorted(latencies)

    def test_thrash_strides_lose_bandwidth(self):
        result = run_experiment("thrash")
        assert_golden(result)
        sequential, *strided = result.column("bandwidth_gbps")
        assert all(bandwidth < sequential for bandwidth in strided)

    def test_policydelta_random_beats_lru(self):
        result = run_experiment("policydelta")
        assert_golden(result)
        latency = {row["policy"]: row["latency_ns"] for row in result.rows}
        assert latency["random"] < latency["lru"]


class TestSimulatorCharacterization:
    def test_fig5_model_signatures(self):
        result = run_experiment("fig5", scale=0.6)
        assert_golden(result)

        def peak(system):
            return max(
                row["bandwidth_gbps"]
                for row in result.rows
                if row["system"] == system
            )

        # fixed latency and ramulator overshoot the theoretical maximum
        assert peak("fixed-latency") > 128.0
        assert peak("ramulator") > 128.0
        # internal DDR under-reports the saturated area
        assert peak("internal-ddr") < 128.0 * 0.85
        # the actual platform peaks between those extremes
        assert 0.8 * 128 < peak("actual") <= 128.0

    def test_fig4_ramulator2_wall(self):
        result = run_experiment("fig4", scale=0.6)
        assert_golden(result)
        wall = max(
            row["bandwidth_gbps"]
            for row in result.rows
            if row["system"] == "ramulator2"
        )
        actual = max(
            row["bandwidth_gbps"]
            for row in result.rows
            if row["system"] == "actual"
        )
        assert wall < 0.5 * actual

    def test_fig6_trace_driven_ordering(self):
        result = run_experiment("fig6", scale=0.6)
        assert_golden(result)

        def peak(simulator):
            return max(
                row["bandwidth_gbps"]
                for row in result.rows
                if row["simulator"] == simulator
            )

        assert peak("ramulator") > peak("actual(dram)")
        assert peak("ramulator2") < 0.6 * peak("actual(dram)")

    def test_fig7_censuses_sum_to_one(self):
        result = run_experiment("fig7", scale=0.6)
        assert_golden(result)
        for row in result.rows:
            total = row["hit_rate"] + row["empty_rate"] + row["miss_rate"]
            assert total == pytest.approx(1.0, abs=0.01)
        sources = {row["source"] for row in result.rows}
        assert sources == {"actual(dram)", "dramsim3", "ramulator"}


#: Every (experiment, scale) run TestFullSystemExperiments checks,
#: longest first so two workers finish together.
_FULL_SYSTEM_RUNS = (
    ("fig11", 0.5),
    ("fig10", 0.5),
    ("fig14", 0.6),
    ("ablation", 0.5),
    ("openpiton", 0.6),
)

#: Bound on one run in a worker; the slowest takes ~30 s on a 2-vCPU host.
_RUN_TIMEOUT_S = 600.0


@pytest.fixture(scope="class")
def full_system():
    """The closed-loop runs, computed two at a time in worker processes.

    They are independent and dominate this module's wall time; each
    test still checks one run's result.
    """
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        futures = {
            run: pool.submit(run_experiment, run[0], scale=run[1])
            for run in _FULL_SYSTEM_RUNS
        }
        yield lambda experiment_id, scale: futures[experiment_id, scale].result(
            _RUN_TIMEOUT_S
        )


@pytest.mark.slow
class TestFullSystemExperiments:
    def test_fig10_mess_tracks_actual(self, full_system):
        result = full_system("fig10", 0.5)
        assert_golden(result)
        # every subfigure reports its comparison note with small
        # unloaded error
        assert len(result.notes) == 3
        for note in result.notes:
            unloaded = float(note.split("unloaded latency error ")[1].split("%")[0])
            assert unloaded < 10.0

    def test_fig11_mess_most_accurate_model(self, full_system):
        result = full_system("fig11", 0.5)
        assert_golden(result)
        means = {
            row["model"]: row["mean_error_pct"] for row in result.rows
        }
        reference = means.pop("cycle-accurate(dram)")
        assert reference == pytest.approx(0.0, abs=0.5)
        assert means["mess"] == min(means.values())
        assert means["fixed-latency"] > 3 * means["mess"]

    def test_fig14_openpiton_cannot_pressure_reads(self, full_system):
        result = full_system("fig14", 0.6)
        assert_golden(result)

        def read_peak(system):
            return max(
                row["bandwidth_gbps"]
                for row in result.rows
                if row["system"] == system and row["read_ratio"] == 1.0
            )

        assert read_peak("openpiton+mess") < read_peak("manufacturer") * 1.05

    def test_openpiton_findings(self, full_system):
        result = full_system("openpiton", 0.6)
        assert_golden(result)
        correct = {
            row["store_fraction"]: row
            for row in result.rows
            if row["config"] == "correct"
        }
        # posted writes raise achievable bandwidth on in-order cores
        assert correct[1.0]["bandwidth_gbps"] > correct[0.0]["bandwidth_gbps"]
        # the coherency bug inflates write traffic beyond write-allocate
        buggy = [
            row
            for row in result.rows
            if row["config"] == "coherency-bug" and row["store_fraction"] > 0
        ]
        assert any(
            row["read_ratio"] < row["expected_read_ratio"] - 0.02
            for row in buggy
        )

    def test_ablation_studies_present(self, full_system):
        result = full_system("ablation", 0.5)
        assert_golden(result)
        studies = {row["study"] for row in result.rows}
        assert studies == {
            "convergence_factor",
            "window_ops",
            "interpolation",
            "scheduling",
            "page_policy",
            "write_queue_depth",
        }
        # FR-FCFS must not be slower than FCFS on the same trace
        scheduling = {
            (row["setting"], row["metric"]): row["value"]
            for row in result.rows
            if row["study"] == "scheduling"
        }
        assert (
            scheduling[("frfcfs", "bandwidth_gbps")]
            >= scheduling[("fcfs", "bandwidth_gbps")] * 0.9
        )
