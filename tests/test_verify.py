from dropgraph.verify import run_checks


def test_gradient_soundness_passes():
    """The release gate's conv, batch-norm and regularizer gradient checks."""
    (result,) = run_checks(["gradient_soundness"])
    assert result.passed, result.detail
