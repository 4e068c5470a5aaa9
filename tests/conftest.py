import pytest

from delaybs import (
    CoefficientExpr,
    DriftFunctional,
    FixedDelaySfde,
    InitialPath,
    OptionSpec,
    RateCurve,
    VariableDelayMarket,
)


@pytest.fixture
def constant_market():
    """Constant coefficients: g = 0.2, lambda = 0.05, one pre-final block."""
    return VariableDelayMarket(
        h=0.4,
        T=1.0,
        s0=100.0,
        f=CoefficientExpr.parse("0.08"),
        g=CoefficientExpr.parse("0.2"),
        rate=RateCurve.constant(0.05),
        g_min=0.1,
    )


@pytest.fixture
def state_market():
    """State-dependent volatility market used across the statistical tests."""
    return VariableDelayMarket(
        h=0.25,
        T=0.9,
        s0=100.0,
        f=CoefficientExpr.parse("0.08"),
        g=CoefficientExpr.parse("0.1 + 0.1*s/(1+s)"),
        rate=RateCurve.constant(0.05),
        g_min=0.05,
    )


@pytest.fixture
def time_market():
    """Volatility depending on t and s, drift on t, piecewise rates."""
    return VariableDelayMarket(
        h=0.25,
        T=0.9,
        s0=100.0,
        f=CoefficientExpr.parse("0.08 + 0.02*t"),
        g=CoefficientExpr.parse("(0.1 + 0.1*s/(1+s)) * (1 + 0.5*t)"),
        rate=RateCurve.piecewise((0.0, 0.5, 1.0), (0.05, 0.03)),
        g_min=0.05,
    )


@pytest.fixture
def balanced_market():
    """Drift equal to the riskless rate: the measure change is trivial."""
    return VariableDelayMarket(
        h=0.25,
        T=0.9,
        s0=100.0,
        f=CoefficientExpr.parse("0.05"),
        g=CoefficientExpr.parse("0.2"),
        rate=RateCurve.constant(0.05),
        g_min=0.1,
    )


@pytest.fixture
def sfde():
    return FixedDelaySfde(
        L=0.25,
        b=0.25,
        a=0.25,
        phi=InitialPath.constant(1.0, 0.25),
        drift=DriftFunctional("segment-point", c=0.1, eps=0.01),
        g=CoefficientExpr.parse("0.2"),
        T=1.0,
    )


@pytest.fixture
def atm_option():
    return OptionSpec(100.0, "call")


# The acceptance tests append one "[PASS]/[FAIL] criterion ..." line each;
# echo them in the terminal summary so a plain `pytest -v` run shows the
# scoreboard even though stdout capture hides the in-test prints.
ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
