import re

from hypothesis import settings

# fixed examples and no per-example deadline: tier-1 runs the same cases
# on every run, however loaded the host
settings.register_profile("kgard", derandomize=True, deadline=None)
settings.load_profile("kgard")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one pass/fail line per acceptance criterion."""
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            match = re.search(r"test_acceptance\.py::test_criterion_(\d+)", nodeid)
            if match and getattr(rep, "when", "call") in ("call", "setup"):
                num = int(match.group(1))
                # a failed call overrides an earlier passed setup
                if status != "passed" or num not in outcomes:
                    outcomes[num] = status
    if not outcomes:
        return

    try:
        from test_acceptance import DETAILS
    except ImportError:
        DETAILS = {}

    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(outcomes):
        verdict = "PASS" if outcomes[num] == "passed" else "FAIL"
        detail = DETAILS.get(num, "")
        suffix = f" - {detail}" if detail else ""
        terminalreporter.write_line(f"criterion {num:2d}: {verdict}{suffix}")
