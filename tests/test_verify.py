from dropgraph.verify import CHECK_NAMES, run_checks


def test_every_release_check_passes():
    """``dropgraph verify`` passes as a whole (about 9 s)."""
    results = run_checks()
    assert [r.name for r in results] == list(CHECK_NAMES)
    failed = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    assert not failed, failed
