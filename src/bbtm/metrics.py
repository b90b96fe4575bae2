"""Measurement pipeline: transaction lifecycles, throughput, latency.

Definitions follow the benchmark methodology the system is evaluated with:
throughput is committed transactions (and kilobytes) over the virtual window
from first submission to last commit; latency is the span from a client's
submission to the final peer commit; the latency distribution is summarized
by median, quartiles, Tukey whiskers, and outliers.  Ledger growth is
reported per channel, both total and per committed event (kB/event).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence, Tuple

from .identity import dump_json


class MetricsError(ValueError):
    pass


@dataclass(slots=True)
class TxLifecycle:
    """One admitted transaction's times, from submission to each node's commit.

    ``commits`` maps node name to commit time.  The simulator gives every
    lifecycle of one block the same mapping, since a node commits a block at
    one instant; it is read-only outside the simulator.  ``from_json`` gives
    each lifecycle a dict of its own.  ``tx_id`` is the transaction's own
    32-byte id; the JSON and CSV forms write it in hex.
    """

    tx_id: bytes
    channel: str
    function: str
    submitter: str
    submit_ms: int
    admit_ms: int
    cut_ms: Optional[int] = None
    commits: Dict[str, int] = dc_field(default_factory=dict)
    size_bytes: int = 0

    @property
    def last_commit_ms(self) -> Optional[int]:
        return max(self.commits.values()) if self.commits else None

    @property
    def latency_ms(self) -> Optional[int]:
        last = self.last_commit_ms
        return None if last is None else last - self.submit_ms

    def to_json(self) -> dict:
        return {
            "tx_id": self.tx_id.hex(),
            "channel": self.channel,
            "function": self.function,
            "submitter": self.submitter,
            "submit_ms": self.submit_ms,
            "admit_ms": self.admit_ms,
            "cut_ms": self.cut_ms,
            "commits": dict(sorted(self.commits.items())),
            "size_bytes": self.size_bytes,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TxLifecycle":
        """The lifecycle a report's JSON object holds, with a commits dict of its own.

        A missing field, or one of another type, is a MetricsError.
        """
        if not isinstance(obj, dict):
            raise MetricsError("a lifecycle is a JSON object")
        try:
            commits, cut_ms = obj["commits"], obj["cut_ms"]
            if not isinstance(commits, dict):
                raise MetricsError("lifecycle commits must map names to times")
            return cls(
                tx_id=_hex(obj["tx_id"], "lifecycle tx_id"),
                channel=_text(obj["channel"], "lifecycle channel"),
                function=_text(obj["function"], "lifecycle function"),
                submitter=_text(obj["submitter"], "lifecycle submitter"),
                submit_ms=_count(obj["submit_ms"], "lifecycle submit_ms"),
                admit_ms=_count(obj["admit_ms"], "lifecycle admit_ms"),
                cut_ms=None if cut_ms is None else _count(cut_ms, "lifecycle cut_ms"),
                commits={name: _count(t, "lifecycle commit time") for name, t in commits.items()},
                size_bytes=_count(obj["size_bytes"], "lifecycle size_bytes"),
            )
        except KeyError as exc:
            raise MetricsError(f"lifecycle lacks {exc.args[0]!r}") from None


def _text(value, what: str) -> str:
    if not isinstance(value, str):
        raise MetricsError(f"{what} must be a string")
    return value


def _hex(value, what: str) -> bytes:
    """The bytes a string value writes in lowercase hex, the form to_json writes."""
    text = _text(value, what)
    try:
        data = bytes.fromhex(text)
        if data.hex() == text:
            return data
    except ValueError:
        pass
    raise MetricsError(f"{what} must be lowercase hex")


def _count(value, what: str) -> int:
    """value, if it is an integer in [0, 2**63) (a bool is not one); a time or size of a report."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < 1 << 63:
        raise MetricsError(f"{what} must be an integer in [0, 2**63)")
    return value


def read_report(obj) -> Tuple[List[TxLifecycle], Dict[str, int]]:
    """The lifecycles and ledger sizes of a simulation report's JSON; MetricsError names what is malformed."""
    if not isinstance(obj, dict):
        raise MetricsError("a report is a JSON object")
    if "lifecycles" not in obj:
        raise MetricsError("report lacks 'lifecycles'")
    lifecycles, sizes = obj["lifecycles"], obj.get("ledger_sizes", {})
    if not isinstance(lifecycles, list):
        raise MetricsError("report lifecycles must be a list")
    if not isinstance(sizes, dict):
        raise MetricsError("report ledger_sizes must map channels to sizes")
    return (
        [TxLifecycle.from_json(lc) for lc in lifecycles],
        {channel: _count(size, f"ledger size of {channel!r}") for channel, size in sizes.items()},
    )


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile over an already sorted sample."""
    if not sorted_values:
        raise MetricsError("quantile of empty sample")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


@dataclass(frozen=True)
class LatencyStats:
    mean_s: float
    median_s: float
    q1_s: float
    q3_s: float
    whisker_low_s: float
    whisker_high_s: float
    outliers_s: Tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "mean_s": self.mean_s,
            "median_s": self.median_s,
            "q1_s": self.q1_s,
            "q3_s": self.q3_s,
            "whisker_low_s": self.whisker_low_s,
            "whisker_high_s": self.whisker_high_s,
            "outliers_s": list(self.outliers_s),
        }


def latency_stats(latencies_s: Sequence[float]) -> LatencyStats:
    if not latencies_s:
        raise MetricsError("empty-input")
    values = sorted(latencies_s)
    q1 = quantile(values, 0.25)
    median = quantile(values, 0.5)
    q3 = quantile(values, 0.75)
    iqr = q3 - q1
    fence_low = q1 - 1.5 * iqr
    fence_high = q3 + 1.5 * iqr
    inside = [v for v in values if fence_low <= v <= fence_high]
    outliers = tuple(v for v in values if v < fence_low or v > fence_high)
    return LatencyStats(
        mean_s=sum(values) / len(values),
        median_s=median,
        q1_s=q1,
        q3_s=q3,
        whisker_low_s=min(inside) if inside else median,
        whisker_high_s=max(inside) if inside else median,
        outliers_s=outliers,
    )


@dataclass(frozen=True)
class ChannelMetrics:
    committed: int
    window_s: float
    throughput_tx_per_s: float
    throughput_kb_per_s: float
    ledger_size_kb: float
    size_per_event_kb: float

    def to_json(self) -> dict:
        return {
            "committed": self.committed,
            "window_s": self.window_s,
            "throughput_tx_per_s": self.throughput_tx_per_s,
            "throughput_kb_per_s": self.throughput_kb_per_s,
            "ledger_size_kb": self.ledger_size_kb,
            "size_per_event_kb": self.size_per_event_kb,
        }


@dataclass(frozen=True)
class MetricsReport:
    committed: int
    window_s: float
    throughput_tx_per_s: float
    throughput_kb_per_s: float
    latency: LatencyStats
    channels: Dict[str, ChannelMetrics]

    def to_json(self) -> dict:
        return {
            "committed": self.committed,
            "window_s": self.window_s,
            "throughput_tx_per_s": self.throughput_tx_per_s,
            "throughput_kb_per_s": self.throughput_kb_per_s,
            "latency": self.latency.to_json(),
            "channels": {name: cm.to_json() for name, cm in sorted(self.channels.items())},
        }


def _window_and_rates(lifecycles: List[TxLifecycle]) -> Tuple[float, float, float]:
    first_submit = min(lc.submit_ms for lc in lifecycles)
    last_commit = max(lc.last_commit_ms for lc in lifecycles)
    window_s = (last_commit - first_submit) / 1000.0
    if window_s <= 0:
        raise MetricsError("zero-length measurement window")
    tx_rate = len(lifecycles) / window_s
    kb_rate = sum(lc.size_bytes for lc in lifecycles) / 1024.0 / window_s
    return window_s, tx_rate, kb_rate


def compute_metrics(
    lifecycles: Sequence[TxLifecycle],
    ledger_sizes: Optional[Dict[str, int]] = None,
) -> MetricsReport:
    """Aggregate a run's lifecycles into the performance report.

    ``ledger_sizes`` maps channel name to the exported ledger file size in
    bytes; when omitted the size columns are reported as zero.
    """
    committed = [lc for lc in lifecycles if lc.commits]
    if not committed:
        raise MetricsError("empty-input")
    window_s, tx_rate, kb_rate = _window_and_rates(committed)
    stats = latency_stats([lc.latency_ms / 1000.0 for lc in committed])
    channels: Dict[str, ChannelMetrics] = {}
    for channel in sorted({lc.channel for lc in committed}):
        members = [lc for lc in committed if lc.channel == channel]
        ch_window, ch_tx_rate, ch_kb_rate = _window_and_rates(members)
        size_bytes = (ledger_sizes or {}).get(channel, 0)
        channels[channel] = ChannelMetrics(
            committed=len(members),
            window_s=ch_window,
            throughput_tx_per_s=ch_tx_rate,
            throughput_kb_per_s=ch_kb_rate,
            ledger_size_kb=size_bytes / 1024.0,
            size_per_event_kb=(size_bytes / 1024.0 / len(members)) if members else 0.0,
        )
    return MetricsReport(
        committed=len(committed),
        window_s=window_s,
        throughput_tx_per_s=tx_rate,
        throughput_kb_per_s=kb_rate,
        latency=stats,
        channels=channels,
    )


CSV_COLUMNS = ["section", "name", "value"]


def report_to_csv(report: MetricsReport) -> str:
    """Flat section/name/value rows; bit-stable for a fixed report."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerow(["overall", "committed", report.committed])
    writer.writerow(["overall", "window_s", repr(report.window_s)])
    writer.writerow(["overall", "throughput_tx_per_s", repr(report.throughput_tx_per_s)])
    writer.writerow(["overall", "throughput_kb_per_s", repr(report.throughput_kb_per_s)])
    for name, value in sorted(report.latency.to_json().items()):
        if name == "outliers_s":
            writer.writerow(["latency", name, ";".join(repr(v) for v in value)])
        else:
            writer.writerow(["latency", name, repr(value)])
    for channel, cm in sorted(report.channels.items()):
        for name, value in sorted(cm.to_json().items()):
            writer.writerow([channel, name, repr(value) if isinstance(value, float) else value])
    return buf.getvalue()


def report_to_json_bytes(report: MetricsReport) -> bytes:
    return dump_json(report.to_json())


def encode_report(report: MetricsReport, fmt: str) -> bytes:
    """The report's file bytes in fmt, "csv" or "json"."""
    if fmt == "csv":
        return report_to_csv(report).encode("utf-8")
    if fmt == "json":
        return report_to_json_bytes(report)
    raise MetricsError(f"unknown format {fmt!r}")


def lifecycles_to_csv(lifecycles: Sequence[TxLifecycle]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["tx_id", "channel", "function", "submitter", "submit_ms", "admit_ms", "cut_ms", "last_commit_ms", "latency_ms", "size_bytes"]
    )
    for lc in lifecycles:
        writer.writerow(
            [
                lc.tx_id.hex(),
                lc.channel,
                lc.function,
                lc.submitter,
                lc.submit_ms,
                lc.admit_ms,
                lc.cut_ms if lc.cut_ms is not None else "",
                lc.last_commit_ms if lc.last_commit_ms is not None else "",
                lc.latency_ms if lc.latency_ms is not None else "",
                lc.size_bytes,
            ]
        )
    return buf.getvalue()
