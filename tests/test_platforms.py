"""Bundled platform configs: schema, invariants, and lookup order."""

from decimal import Decimal

import pytest
import yaml

from faascost.billing.engine import billable_time, compute_cost, fee_equivalent_walltime
from faascost.billing.model import (
    BillingError,
    MissingGranularityError,
    MissingPriceError,
    allocation,
)
from faascost.billing.platforms import (
    CONFIG_DIR_ENV,
    bundled_platform_names,
    parse_platform_config,
    resolve_platform,
)
from faascost.money import dec
from faascost.traces.records import InvocationRecord

EXPECTED_PLATFORMS = {
    "aws_lambda",
    "aws_lambda_arm",
    "gcp_cloudrun_functions",
    "azure_functions_consumption",
    "azure_functions_flex",
    "ibm_code_engine",
    "huawei_functiongraph",
    "alibaba_function_compute",
    "oracle_functions",
    "vercel_functions",
    "cloudflare_workers",
}


def make_record(exec_ms, init_ms=0.0, vcpus=0.0, mem_mb=0.0, cpu=0.0, mem_usage=0.0):
    return InvocationRecord(
        function_id="f",
        instance_id="i",
        arrival_ts_ms=0.0,
        exec_duration_ms=exec_ms,
        init_duration_ms=init_ms,
        is_cold_start=init_ms > 0,
        alloc_vcpus=vcpus,
        alloc_memory_mb=mem_mb,
        cpu_usage_avg_vcpus=cpu,
        mem_usage_mb=mem_usage,
    )


def test_all_bundled_configs_load():
    names = set(bundled_platform_names())
    assert names == EXPECTED_PLATFORMS
    for name in names:
        cfg = resolve_platform(name)
        assert cfg.name == name


def test_aws_per_second_price_at_1769mb():
    cfg = resolve_platform("aws_lambda")
    price = cfg.alloc_resources[0].unit_price_usd_per_unit_second
    per_second = Decimal(1769) / Decimal(1024) * price
    assert per_second.quantize(Decimal("1e-9")) == Decimal("2.8792e-5").quantize(Decimal("1e-9"))


def test_aws_arm_per_second_price_at_1769mb():
    cfg = resolve_platform("aws_lambda_arm")
    price = cfg.alloc_resources[0].unit_price_usd_per_unit_second
    per_second = Decimal(1769) / Decimal(1024) * price
    assert per_second.quantize(Decimal("1e-9")) == Decimal("2.3034e-5").quantize(Decimal("1e-9"))


def test_gcp_per_second_price_at_1vcpu_1769mb():
    cfg = resolve_platform("gcp_cloudrun_functions")
    cpu_price = cfg.alloc_spec("vcpu").unit_price_usd_per_unit_second
    mem_price = cfg.alloc_spec("memory_gb").unit_price_usd_per_unit_second
    per_second = cpu_price + Decimal(1769) / Decimal(1024) * mem_price
    assert per_second.quantize(Decimal("1e-9")) == Decimal("2.8319e-5").quantize(Decimal("1e-9"))


def test_gcp_fee_equivalent_at_half_vcpu_512mb():
    cfg = resolve_platform("gcp_cloudrun_functions")
    got = fee_equivalent_walltime(cfg, allocation("0.5", 512))
    assert abs(got - Decimal("30.19")) < Decimal("0.01")


def test_azure_consumption_cutoff_and_memory_rounding():
    cfg = resolve_platform("azure_functions_consumption")
    assert billable_time(1, 0, cfg) == Decimal(100)
    spec = cfg.usage_spec("memory_gb")
    assert spec.granularity == Decimal("0.125")
    assert spec.billing_basis == "per_billable_second"


def test_azure_flex_cutoff():
    cfg = resolve_platform("azure_functions_flex")
    assert billable_time(1, 0, cfg) == Decimal(1000)
    assert billable_time(1001, 0, cfg) == Decimal(1100)


def test_undocumented_granularity_errors_on_rounding():
    for name in ("oracle_functions", "vercel_functions"):
        cfg = resolve_platform(name)
        with pytest.raises(MissingGranularityError):
            billable_time(10, 0, cfg)


def test_undocumented_price_errors_on_costing():
    cfg = resolve_platform("azure_functions_consumption")
    with pytest.raises(MissingPriceError):
        compute_cost(make_record(50.0, mem_usage=100.0), cfg)


def test_unknown_platform_name():
    with pytest.raises(BillingError, match="no platform config"):
        resolve_platform("definitely_not_a_platform")


def test_env_dir_overrides_bundled(tmp_path, monkeypatch):
    override = tmp_path / "aws_lambda.yaml"
    override.write_text(
        """
name: aws_lambda
billable_time: {kind: execution, granularity_ms: "5"}
alloc_resources: []
usage_resources: []
invocation_fee_usd: "0"
knob_coupling: {kind: independent}
"""
    )
    monkeypatch.setenv(CONFIG_DIR_ENV, str(tmp_path))
    assert resolve_platform("aws_lambda").time_granularity_ms == Decimal(5)
    # An explicit directory takes precedence over the environment variable.
    monkeypatch.setenv(CONFIG_DIR_ENV, str(tmp_path / "nope"))
    assert resolve_platform("aws_lambda").time_granularity_ms == Decimal(1)


def test_direct_path_lookup(tmp_path):
    path = tmp_path / "custom.yaml"
    path.write_text(
        """
name: custom
billable_time: {kind: execution, granularity_ms: "2"}
alloc_resources: []
usage_resources: []
invocation_fee_usd: "0"
knob_coupling: {kind: independent}
"""
    )
    assert resolve_platform(str(path)).name == "custom"


_MIXED_NUMBERS = """
name: mixed
billable_time: {kind: execution, granularity_ms: 1, min_cutoff_ms: 0.1}
alloc_resources:
  - {resource: memory_gb, granularity: 0.0009765625,
     unit_price_usd_per_unit_second: "0.0000166667"}
  - {resource: vcpu, granularity: "0.01", unit_price_usd_per_unit_second: null}
usage_resources:
  - {resource: egress, granularity: 5, unit_price_usd_per_unit: 0.1}
invocation_fee_usd: 0.0000002
knob_coupling: {kind: ratio_constrained, min_ratio: 0.125, max_ratio: 4,
                cpu_step: "0.08", mem_step_mb: 128}
"""


def _quoted(node):
    """``node`` with every YAML number written as a quoted string."""
    if isinstance(node, dict):
        return {key: _quoted(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_quoted(value) for value in node]
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return repr(node)
    return node


def test_parse_converts_every_number_form_exactly():
    doc = yaml.safe_load(_MIXED_NUMBERS)
    cfg = parse_platform_config(doc)
    mem, vcpu = cfg.alloc_resources
    (egress,) = cfg.usage_resources
    knobs = cfg.knob_coupling
    pairs = [
        (cfg.time_granularity_ms, 1),
        (cfg.time_min_cutoff_ms, 0.1),
        (cfg.invocation_fee_usd, 0.0000002),
        (mem.granularity, 0.0009765625),
        (mem.unit_price_usd_per_unit_second, "0.0000166667"),
        (vcpu.granularity, "0.01"),
        (egress.granularity, 5),
        (egress.unit_price_usd_per_unit, 0.1),
        (knobs.min_ratio, 0.125),
        (knobs.max_ratio, 4),
        (knobs.cpu_step, "0.08"),
        (knobs.mem_step_mb, 128),
    ]
    for got, value in pairs:
        assert type(got) is Decimal and got == dec(value), (got, value)
    assert vcpu.unit_price_usd_per_unit_second is None
    quoted = parse_platform_config(_quoted(doc))
    assert quoted == cfg and repr(quoted) == repr(cfg)
