"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions and methods of the ``bbtm`` modules from
outside the package.  A module-level function is replaced in *every* ``bbtm``
module namespace that holds it, so ``from .identity import sha256`` in
``node.py`` is counted like a call through ``identity.sha256``.  Methods are
replaced on their class.

Two kinds of wrapper:

* count-only, for hot leaf functions (``wire.field`` runs millions of times):
  a call counter and nothing else, so their time stays in the caller's self
  time;
* span, for layer boundaries: name, start, end, parent span and the block
  number or transaction key where the call has one.  Spans are kept in memory; ``dump`` writes
  them out when the run ends.  Self time is a span's duration minus the time
  its child spans cover.

Around every ``identity.verify_signature`` call, and around every
``Node.commit_block``, the tracer reads the process-wide verify cache's
``cache_info()``: misses are real Ed25519 verifications, hits are not.  The
commit deltas are booked to the committing node.

Wrappers never encode, hash or verify anything themselves, so the counts they
report are exactly the program's own calls.
"""

from __future__ import annotations

import gzip
import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

COUNT = "count"
SPAN = "span"

# (module, attribute, metric prefix, kind).  Attributes with a dot are
# methods: "Class.method".
TARGETS: List[Tuple[str, str, str, str]] = [
    ("wire", "field", "wire.field", COUNT),
    ("identity", "sha256", "identity.sha256", COUNT),
    ("identity", "canonical_encode", "identity.canonical_encode", COUNT),
    ("identity", "verify_signature", "identity.verify_signature", COUNT),
    ("ledger", "Transaction.signing_bytes", "ledger.signing_bytes", COUNT),
    ("ledger", "data_hash_of", "ledger.data_hash_of", COUNT),
    ("ledger", "Ledger.check_block", "ledger.check_block", SPAN),
    ("ledger", "Ledger.append_block", "ledger.append_block", SPAN),
    ("ledger", "Ledger.world_state_digest", "ledger.world_state_digest", SPAN),
    ("ledger", "encode_chain", "ledger.encode_chain", SPAN),
    ("ledger", "decode_chain", "ledger.decode_chain", SPAN),
    ("gccf", "GccfView.copy", "gccf.view_copy", SPAN),
    ("gccf", "apply_tx", "gccf.apply_tx", SPAN),
    ("gccf", "validate_cert", "gccf.validate_cert", SPAN),
    ("gpf", "GpfView.copy", "gpf.view_copy", SPAN),
    ("gpf", "apply_tx", "gpf.apply_tx", SPAN),
    ("gpf", "decode_policy", "gpf.decode_policy", COUNT),
    ("ballot", "tally_ballot", "ballot.tally_ballot", SPAN),
    ("ballot", "decode_endorsement", "ballot.decode_endorsement", COUNT),
    ("ordering", "OrderingService.submit_tx", "ordering.submit_tx", SPAN),
    ("ordering", "OrderingService.cut_block", "ordering.cut_block", SPAN),
    ("node", "Node.commit_block", "node.commit_block", SPAN),
    ("simulation", "Simulation.sync_node", "simulation.sync_node", SPAN),
    ("simulation", "Simulation.assert_convergence", "simulation.assert_convergence", SPAN),
    ("simulation", "SimulationReport.to_json_bytes", "simulation.to_json_bytes", SPAN),
    ("deployment", "build_deployment", "deployment.build_deployment", SPAN),
    ("metrics", "compute_metrics", "metrics.compute_metrics", SPAN),
    ("cli", "load_deployment", "cli.load_deployment", SPAN),
    ("cli", "CliDeployment.save_chains", "cli.save_chains", SPAN),
]

# Exceptions that mean "refused" or "rejected" for the metric of that name.
REJECTION_TYPES = {
    "node.commit_block": ("node", "BlockRefused", "refused"),
    "gccf.apply_tx": ("gccf", "ContractRejection", "rejected"),
    "gpf.apply_tx": ("gccf", "ContractRejection", "rejected"),
    "ordering.submit_tx": ("ordering", "Rejected", "rejected"),
}


def _span_key(args):
    """Block number, or the transaction's state key, of a call's arguments.

    The key stands in for ``tx_id``: computing the id would hash and encode
    inside the tracer and so change the very counts it reports.
    """
    for arg in args:
        header = getattr(arg, "header", None)
        if header is not None:
            return header.number
        if hasattr(arg, "submitter_signature"):
            return arg.key
    return None


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.extra: Counter = Counter()
        self.spans: List[tuple] = []
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.txs_per_block: List[int] = []
        self.node_verify: Dict[str, List[int]] = defaultdict(lambda: [0, 0])  # name -> [real, hits]
        self._verify_raw = None

    @staticmethod
    def _module(short: str):
        return importlib.import_module(f"bbtm.{short}")

    # ------------------------------------------------------------ install

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._verify_raw = self._module("identity")._verify_raw
        for short, _attr, _name, _kind in TARGETS:
            self._module(short)  # import first, so every from-import site exists
        modules = [m for n, m in sorted(sys.modules.items()) if m is not None and n.split(".")[0] == "bbtm"]
        for short, attr, name, kind in TARGETS:
            owner = self._module(short)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[meth]
                self._patch(cls, meth, self._wrap(original, name, kind))
            else:
                original = getattr(owner, attr)
                wrapper = self._wrap(original, name, kind)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------ wrappers

    def _wrap(self, fn: Callable, name: str, kind: str) -> Callable:
        calls = self.calls
        if name == "identity.verify_signature":
            verify_raw, extra = self._verify_raw, self.extra

            def verify_counted(*args, **kwargs):
                calls[name] += 1
                misses = verify_raw.cache_info().misses
                try:
                    return fn(*args, **kwargs)
                finally:
                    extra["identity.verify_real"] += verify_raw.cache_info().misses - misses

            verify_counted.__wrapped__ = fn
            return verify_counted
        if kind == COUNT:
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            counted.__wrapped__ = fn
            return counted

        rejection = REJECTION_TYPES.get(name)
        rejection_type = getattr(self._module(rejection[0]), rejection[1]) if rejection else None
        is_commit = name == "node.commit_block"
        is_cut = name == "ordering.cut_block"
        is_sync = name == "simulation.sync_node"
        is_copy = name.endswith(".view_copy")
        verify_raw = self._verify_raw
        stack = self._stack
        spans = self.spans
        busy = self.busy
        self_time = self.self_time
        extra = self.extra

        def spanned(*args, **kwargs):
            calls[name] += 1
            if is_copy:
                extra[name + ".entries"] += len(args[0].world)
            if is_commit:
                before = verify_raw.cache_info()
            parent = stack[-1][2] if stack else -1
            frame = [time.perf_counter(), 0.0, len(spans)]
            spans.append(None)  # placeholder keeps span ids in start order
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if rejection_type is not None and isinstance(exc, rejection_type):
                    extra[f"{name}.{rejection[2]}"] += 1
                raise
            else:
                if is_cut and result is not None:
                    self.txs_per_block.append(len(result.transactions))
                if is_sync:
                    extra[name + ".blocks"] += result
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                start, child, span_id = frame
                duration = end - start
                busy[name] += duration
                self_time[name] += duration - child
                if stack:
                    stack[-1][1] += duration
                spans[span_id] = (name, start, end, parent, _span_key(args))
                if is_commit:
                    after = verify_raw.cache_info()
                    tally = self.node_verify[args[0].name]
                    tally[0] += after.misses - before.misses
                    tally[1] += after.hits - before.hits

        spanned.__wrapped__ = fn
        return spanned

    # ------------------------------------------------------------ results

    def dump(self, path) -> None:
        """Write spans as gzip'd JSON lines: name, start, end, parent, key."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent, key) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_s": start - t0, "end_s": end - t0,
                                     "parent": parent, "key": key}) + "\n")

    def node_stats(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for index, label in ((0, "verify_real"), (1, "verify_hits")):
            values = [tally[index] for tally in self.node_verify.values()] or [0]
            out[f"node.{label}.sum"] = sum(values)
            out[f"node.{label}.min"] = min(values)
            out[f"node.{label}.max"] = max(values)
        return out

    def mean_txs_per_block(self) -> float:
        return statistics.fmean(self.txs_per_block) if self.txs_per_block else 0.0
