"""The traced layers of wignerlab and the per-layer metrics derived from them.

A layer is a public function (or method) of one wignerlab module, named
`<module>.<attribute>` relative to the package.  The traced run wraps each of
them from outside the package and reports, per protocol run, its call count,
total (inclusive) time and self time.  README.md maps each layer to the
end-to-end metric and workload it should move.
"""

from __future__ import annotations

TRACED = (
    "contextuality.verify_square_constraints",
    "contextuality.retrodict_from_c",
    "contextuality.c_outcome_consistent",
    "qsim.branch_decompose",
    "qsim.expectation",
    "qsim.product_observable",
    "qsim.apply_operator",
    "qsim.SpectralObservable.matrix",
    "qsim.SpectralObservable.support",
    "qsim.SpectralObservable.__post_init__",
    "friendify.friend_unitary",
    "friendify.record_observable",
    "friendify.lift_observable",
    "friendify.double_lift_basis",
    "scenarios.run_pm_protocol",
    "scenarios.build_pm_scenario",
    "scenarios.signalling_factorization_check",
    "scenarios.report_to_dict",
    "scenarios.build_pm_frame",
    "scenarios.build_hardy_frame",
    "scenarios.run_fr_protocol",
    "scenarios.extract_implications",
    "scenarios.chain_inferences",
    "epistemic.audit_inference_chain",
    "epistemic.pm_epistemic_audit",
    "cli.parse_state",
    "cli.emit_report",
    "cli.run_command",
)

# Work that depends only on the fixed operator frame yet is redone inside
# every run_pm_protocol call.  Their time under run_pm_protocol, over the
# run_pm_protocol total, is scenarios.state_independent_share.
STATE_INDEPENDENT = (
    "contextuality.verify_square_constraints",
    "contextuality.retrodict_from_c",
    "contextuality.c_outcome_consistent",
    "qsim.product_observable",
    "friendify.friend_unitary",
)

PROTOCOL_RUN = "scenarios.run_pm_protocol"

SUFFIXES = (("calls", "calls/run"), ("total_ms", "ms/run"), ("self_ms", "ms/run"))

# Per-layer figures that are not a traced function's calls/total/self.
DERIVED = (
    ("qsim.branch_decompose.kept_ratio", "ratio", "higher"),
    ("scenarios.state_independent_share", "ratio", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.report_bytes", "B/run", "lower"),
    ("rss_per_run_kib", "KiB", "lower"),
    ("tracing_overhead_s", "s", "lower"),
)


def per_layer_metrics() -> list[dict]:
    """Every per-layer metric as BENCHMARK.json lists it."""
    metrics = [
        {"name": f"{layer}.{suffix}", "unit": unit, "better": "lower"}
        for layer in TRACED
        for suffix, unit in SUFFIXES
    ]
    metrics += [{"name": name, "unit": unit, "better": better} for name, unit, better in DERIVED]
    return metrics
