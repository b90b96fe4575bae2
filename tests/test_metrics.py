"""Metrics pipeline: definitions, quartiles, exports, accounting."""

import json
from random import Random

import numpy
import pytest

from bbtm import metrics
from bbtm.identity import write_atomic
from bbtm.ledger import decode_chain
from bbtm.metrics import (
    MetricsError,
    TxLifecycle,
    compute_metrics,
    encode_report,
    latency_stats,
    lifecycles_to_csv,
    quantile,
    report_to_csv,
    report_to_json_bytes,
)
from bbtm.simulation import NetworkParams, ScenarioConfig, Simulation

EXACT_NODES = (("Elector", 2), ("RCA", 1), ("PG", 1), ("OSP", 1))


def _lc(tx_id, submit, admit, cut, commits, size=100, channel="GPF", function="AddPolicy"):
    return TxLifecycle(
        tx_id=tx_id, channel=channel, function=function, submitter="PG-1",
        submit_ms=submit, admit_ms=admit, cut_ms=cut, commits=commits, size_bytes=size,
    )


class TestLifecycleFromJson:
    def test_each_lifecycle_gets_its_own_commits(self):
        # The simulator shares one mapping among a block's lifecycles; a read report never does.
        shared = {"OSP-1": 30, "RA-1": 40}
        first, second = _lc(b"a", 0, 10, 30, shared), _lc(b"b", 5, 10, 30, shared)
        obj = first.to_json()
        read_first, read_second = TxLifecycle.from_json(obj), TxLifecycle.from_json(second.to_json())
        assert read_first == first and read_second == second
        assert read_first.commits is not obj["commits"]
        assert len({id(commits) for commits in (shared, read_first.commits, read_second.commits)}) == 3
        read_first.commits["RA-2"] = 50
        assert read_second.commits == shared == {"OSP-1": 30, "RA-1": 40}


class TestQuantile:
    @pytest.mark.parametrize("q", [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
    def test_matches_numpy_linear_interpolation(self, q):
        rng = Random(8)
        for _ in range(50):
            values = sorted(rng.uniform(0, 100) for _ in range(rng.randint(1, 40)))
            assert quantile(values, q) == pytest.approx(
                float(numpy.percentile(values, q * 100)), abs=1e-12
            )

    def test_empty_sample_is_an_error(self):
        with pytest.raises(MetricsError):
            quantile([], 0.5)


class TestLatencyStats:
    def test_degenerate_distribution_has_no_outliers(self):
        stats = latency_stats([0.4] * 12)
        assert stats.median_s == 0.4
        assert stats.q3_s - stats.q1_s == 0.0
        assert stats.outliers_s == ()
        assert stats.whisker_low_s == stats.whisker_high_s == 0.4

    def test_outlier_detection_matches_numpy_fences(self):
        rng = Random(13)
        values = [rng.gauss(1.0, 0.05) for _ in range(200)] + [5.0, -2.0]
        stats = latency_stats(values)
        q1, q3 = numpy.percentile(values, [25, 75])
        iqr = q3 - q1
        expected = sorted(v for v in values if v < q1 - 1.5 * iqr or v > q3 + 1.5 * iqr)
        assert sorted(stats.outliers_s) == pytest.approx(expected)
        assert 5.0 in stats.outliers_s and -2.0 in stats.outliers_s


class TestComputeMetrics:
    def test_two_txs_in_one_second_is_two_tx_per_s(self):
        lifecycles = [
            _lc(b"a", 0, 10, 20, {"OSP-1": 500}),
            _lc(b"b", 100, 110, 120, {"OSP-1": 1000}),
        ]
        report = compute_metrics(lifecycles)
        assert report.window_s == 1.0
        assert report.throughput_tx_per_s == 2.0

    def test_latency_is_submit_to_last_peer_commit(self):
        lifecycles = [_lc(b"a", 0, 10, 20, {"OSP-1": 30, "RA-1": 250, "PG-1": 100})]
        report = compute_metrics(lifecycles)
        assert report.latency.mean_s == 0.25

    def test_empty_input_is_an_error(self):
        with pytest.raises(MetricsError):
            compute_metrics([])
        with pytest.raises(MetricsError):
            compute_metrics([_lc(b"a", 0, 1, None, {})])

    def test_uncommitted_lifecycles_excluded(self):
        lifecycles = [
            _lc(b"a", 0, 10, 20, {"OSP-1": 1000}),
            _lc(b"b", 5, 15, None, {}),
        ]
        assert compute_metrics(lifecycles).committed == 1


class TestExactScenario:
    """Three policy writes with a fixed 10 ms link delay; everything is
    hand-computed from the admission and cutting rules."""

    def _run(self):
        workload = tuple(
            {"at_ms": t, "action": "policy_add", "entity": "RA", "rule": f"r{i}", "body": {"v": i}}
            for i, t in enumerate((1000, 1100, 1200))
        )
        config = ScenarioConfig(
            seed=101,
            nodes=EXACT_NODES,
            network=NetworkParams(10, 10, 0.0),
            workload=workload,
            policies=(("ballot_quorum", 2),),
        )
        sim = Simulation(config)
        return sim, sim.run()

    def test_hand_computed_lifecycle_times(self):
        _sim, report = self._run()
        lifecycles = report.lifecycles
        assert len(lifecycles) == 3
        peers = {"Elector-1", "Elector-2", "RCA-1", "PG-1"}
        for lc, submit in zip(lifecycles, (1000, 1100, 1200)):
            assert lc.submit_ms == submit
            assert lc.admit_ms == submit + 10
            assert lc.cut_ms == 1510  # first admission (1010) + 500 ms timeout
            assert lc.commits["OSP-1"] == 1510
            for peer in peers:
                assert lc.commits[peer] == 1520

    def test_hand_computed_metrics_exactly(self):
        sim, report = self._run()
        lifecycles = report.lifecycles
        computed = compute_metrics(lifecycles, report.ledger_sizes)
        window_s = (1520 - 1000) / 1000.0
        assert computed.window_s == window_s
        assert computed.throughput_tx_per_s == 3 / window_s
        total_kb = sum(lc.size_bytes for lc in lifecycles) / 1024.0
        assert computed.throughput_kb_per_s == total_kb / window_s
        lat = sorted((1520 - s) / 1000.0 for s in (1000, 1100, 1200))
        assert computed.latency.mean_s == sum(lat) / 3
        assert computed.latency.median_s == lat[1]
        assert computed.latency.q1_s == lat[0] * 0.5 + lat[1] * 0.5
        assert computed.latency.q3_s == lat[1] * 0.5 + lat[2] * 0.5
        assert computed.latency.outliers_s == ()
        assert computed.latency.whisker_low_s == lat[0]
        assert computed.latency.whisker_high_s == lat[2]
        gpf = computed.channels["GPF"]
        assert gpf.committed == 3
        assert gpf.throughput_tx_per_s == 3 / window_s


class TestConservationAndAccounting:
    def _sim_report(self, tmp_path):
        config = ScenarioConfig(
            seed=303,
            nodes=(("Elector", 3), ("RCA", 1), ("ICA", 1), ("PG", 1), ("OSP", 1), ("RA", 1)),
            network=NetworkParams(5, 25, 0.0),
            generate={"count": 80, "spacing_ms": 8},
            policies=(("ballot_quorum", 2),),
        )
        sim = Simulation(config)
        report = sim.run()
        paths = sim.export_ledgers(tmp_path)
        return sim, report, paths

    def test_committed_count_equals_ledger_scan(self, tmp_path):
        _sim, report, paths = self._sim_report(tmp_path)
        lifecycles = report.lifecycles
        computed = compute_metrics(lifecycles, report.ledger_sizes)
        scan = 0
        lifecycle_ids = {lc.tx_id for lc in lifecycles}
        for path in paths.values():
            with open(path, "rb") as fh:
                for block in decode_chain(fh.read()):
                    for tx in block.transactions:
                        if tx.tx_id in lifecycle_ids:
                            scan += 1
        assert computed.committed == scan

    def test_sizes_match_on_disk_growth_minus_overhead(self, tmp_path):
        _sim, report, paths = self._sim_report(tmp_path)
        lifecycles = report.lifecycles
        lifecycle_sum = sum(lc.size_bytes for lc in lifecycles if lc.commits)
        total_tx_bytes = 0
        genesis_tx_bytes = 0
        for path in paths.values():
            data = open(path, "rb").read()
            blocks = decode_chain(data)
            framing = 5 + 4 * len(blocks)  # magic+version plus per-block length prefixes
            overhead = sum(
                len(b.encode()) - sum(len(tx.canonical_body()) + 4 for tx in b.transactions)
                for b in blocks
            )
            tx_bytes = len(data) - framing - overhead - 4 * sum(len(b.transactions) for b in blocks)
            total_tx_bytes += tx_bytes
            genesis_tx_bytes += sum(len(tx.canonical_body()) for tx in blocks[0].transactions)
        assert lifecycle_sum == total_tx_bytes - genesis_tx_bytes


class TestCsvRecomputationOracle:
    def test_report_matches_spreadsheet_style_recomputation(self, tmp_path):
        # Independent oracle: recompute throughput and mean latency from the
        # exported lifecycle CSV with plain csv arithmetic.
        import csv as csv_mod

        config = ScenarioConfig(
            seed=404,
            nodes=(("Elector", 2), ("RCA", 1), ("ICA", 1), ("PG", 1), ("OSP", 1)),
            network=NetworkParams(5, 25, 0.0),
            generate={"count": 50, "spacing_ms": 9},
            policies=(("ballot_quorum", 2),),
        )
        sim = Simulation(config)
        report = sim.run()
        lifecycles = report.lifecycles
        computed = compute_metrics(lifecycles, report.ledger_sizes)
        csv_path = tmp_path / "lifecycles.csv"
        csv_path.write_text(lifecycles_to_csv(lifecycles))
        with open(csv_path, newline="") as fh:
            rows = [r for r in csv_mod.DictReader(fh) if r["last_commit_ms"]]
        submits = [int(r["submit_ms"]) for r in rows]
        commits = [int(r["last_commit_ms"]) for r in rows]
        latencies = [int(r["latency_ms"]) / 1000.0 for r in rows]
        window_s = (max(commits) - min(submits)) / 1000.0
        assert computed.committed == len(rows)
        assert computed.throughput_tx_per_s == len(rows) / window_s
        assert computed.latency.mean_s == pytest.approx(sum(latencies) / len(latencies), rel=1e-12)
        sizes = [int(r["size_bytes"]) for r in rows]
        assert computed.throughput_kb_per_s == pytest.approx(sum(sizes) / 1024.0 / window_s, rel=1e-12)


class TestLifecycleIds:
    def test_json_and_csv_write_the_transactions_own_id_in_hex(self):
        sim = Simulation(ScenarioConfig(
            seed=17, nodes=EXACT_NODES + (("ICA", 1), ("RA", 1)), generate={"count": 20, "spacing_ms": 8},
        ))
        report = sim.run()
        txs = {tx.tx_id: tx for ledger in sim.nodes[sim.osp_name].ledgers.values()
               for block in ledger.blocks for tx in block.transactions}
        rows = lifecycles_to_csv(report.lifecycles).splitlines()[1:]
        assert len(rows) == len(report.lifecycles) > 10
        for lc, row in zip(report.lifecycles, rows):
            if lc.commits:
                assert txs[lc.tx_id].tx_id is lc.tx_id
            assert len(lc.tx_id) == 32
            assert lc.to_json()["tx_id"] == row.split(",")[0] == lc.tx_id.hex()
            assert TxLifecycle.from_json(json.loads(json.dumps(lc.to_json()))) == lc

    @pytest.mark.parametrize("tx_id", ["AA", "a", "zz", " aa", "0x00"])
    def test_an_id_that_is_not_lowercase_hex_is_refused(self, tx_id):
        obj = {**_lc(b"\xaa", 0, 10, 20, {"OSP-1": 30}).to_json(), "tx_id": tx_id}
        with pytest.raises(MetricsError, match="lifecycle tx_id must be lowercase hex"):
            TxLifecycle.from_json(obj)


class TestExports:
    def _report(self):
        lifecycles = [
            _lc(b"a", 0, 10, 20, {"OSP-1": 120, "RA-1": 150}),
            _lc(b"b", 50, 60, 70, {"OSP-1": 160, "RA-1": 200}, size=140, channel="GCCF", function="AddCert"),
        ]
        return compute_metrics(lifecycles, {"GCCF": 2048, "GPF": 4096})

    def test_export_bit_stable(self, tmp_path):
        report = self._report()
        for fmt in ("csv", "json"):
            a, b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
            write_atomic(a, encode_report(report, fmt))
            write_atomic(b, encode_report(report, fmt))
            assert a.read_bytes() == b.read_bytes()

    def test_csv_header_documented(self):
        first_line = report_to_csv(self._report()).splitlines()[0]
        assert first_line == ",".join(metrics.CSV_COLUMNS)

    def test_json_roundtrip_is_stable(self):
        report = self._report()
        parsed = json.loads(report_to_json_bytes(report))
        assert parsed == report.to_json()
        again = json.dumps(parsed, sort_keys=True, indent=2) + "\n"
        assert again.encode() == report_to_json_bytes(report)

    def test_ledger_size_columns(self):
        report = self._report()
        assert report.channels["GCCF"].ledger_size_kb == 2.0
        assert report.channels["GCCF"].size_per_event_kb == 2.0  # one committed event
        assert report.channels["GPF"].ledger_size_kb == 4.0

    def test_unknown_format_rejected(self):
        with pytest.raises(MetricsError):
            encode_report(self._report(), "xml")

    def test_lifecycle_csv_columns(self):
        header = lifecycles_to_csv([]).splitlines()[0]
        assert header.split(",") == [
            "tx_id", "channel", "function", "submitter", "submit_ms", "admit_ms",
            "cut_ms", "last_commit_ms", "latency_ms", "size_bytes",
        ]
