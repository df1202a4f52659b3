"""Tests for trace-versus-profile conformance validation."""

import dataclasses

import pytest

from repro.workloads import (
    BENCHMARK_NAMES,
    generate_trace,
    get_profile,
    validate_trace,
)


def failures(report):
    return [check for check in report.checks if not check.passed]


class TestSuiteConformance:
    @pytest.mark.parametrize("bench_name", BENCHMARK_NAMES)
    def test_suite_traces_conform(self, bench_name):
        profile = get_profile(bench_name)
        trace = generate_trace(profile, 20000, seed=5)
        report = validate_trace(trace, profile)
        assert report.passed, "\n".join(str(c) for c in failures(report))

    def test_report_structure(self):
        profile = get_profile("gzip")
        trace = generate_trace(profile, 10000, seed=5)
        report = validate_trace(trace, profile)
        names = {check.name for check in report.checks}
        assert "mix_int" in names
        assert "branch_persistence" in names
        assert "data_survival_1024" in names
        assert report.benchmark == "gzip"


class TestMismatchDetection:
    def test_wrong_profile_fails_mix(self):
        # a gzip trace should not conform to the mcf profile
        gzip_trace = generate_trace(get_profile("gzip"), 20000, seed=5)
        report = validate_trace(gzip_trace, get_profile("mcf"))
        assert not report.passed
        failing = {check.name for check in failures(report)}
        assert any(name.startswith("mix_") for name in failing)

    def test_wrong_reuse_profile_fails_survival(self):
        # mcf's memory behaviour should not pass as gzip's
        mcf_trace = generate_trace(get_profile("mcf"), 20000, seed=5)
        report = validate_trace(mcf_trace, get_profile("gzip"))
        failing = {check.name for check in failures(report)}
        assert any(name.startswith("data_survival") for name in failing)

    def test_perturbed_branch_behaviour_detected(self):
        profile = get_profile("mesa")  # highly predictable branches
        trace = generate_trace(profile, 20000, seed=5)
        claimed = dataclasses.replace(profile, unpredictable_rate=0.9)
        report = validate_trace(trace, claimed)
        failing = {check.name for check in failures(report)}
        assert "branch_persistence" in failing

    def test_check_str_mentions_status(self):
        profile = get_profile("gzip")
        trace = generate_trace(profile, 5000, seed=5)
        report = validate_trace(trace, profile)
        assert any("[ok]" in str(check) for check in report.checks)
