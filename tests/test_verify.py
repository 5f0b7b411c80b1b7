from dropgraph import verify
from dropgraph.errors import ContractError
from dropgraph.regularizers import DropMask
from dropgraph.rng import RngStream
from dropgraph.verify import CHECK_NAMES, run_checks


def test_every_release_check_passes():
    """``dropgraph verify`` passes as a whole (about 9 s)."""
    results = run_checks()
    assert [r.name for r in results] == list(CHECK_NAMES)
    failed = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    assert not failed, failed


# Each test below plants one fault, with no threshold changed, and the gate fails on it.


def test_scheduler_contract_fails_on_a_ramp_that_dips(monkeypatch):
    real = verify.schedule_rho

    def dips(cfg, step, total):
        return real(cfg, step, total) - (0.01 * cfg.rho if step == total // 2 else 0.0)

    monkeypatch.setattr(verify, "schedule_rho", dips)
    [result] = run_checks(["scheduler_contract"])
    assert not result.passed and result.detail == "f1 not nondecreasing"


def test_mask_rate_calibration_fails_on_a_mask_that_reports_twice_its_rate(monkeypatch):
    real = verify.sample_block_mask

    def doubled(*args, **kwargs):
        mask = real(*args, **kwargs)
        return DropMask(mask.gate, 2.0 * mask.dropped_fraction)

    monkeypatch.setattr(verify, "sample_block_mask", doubled)
    [result] = run_checks(["mask_rate_calibration"])
    assert not result.passed and result.detail.startswith("drop rate off by")


def test_determinism_replay_fails_on_a_forward_that_ignores_its_stream(monkeypatch):
    real = verify.dropgraph_forward

    def fixed(x, cfg, params, rho, rng):
        return real(x, cfg, params, rho, RngStream(0, ("fixed",)))

    monkeypatch.setattr(verify, "dropgraph_forward", fixed)
    [result] = run_checks(["determinism_replay"])
    assert not result.passed
    assert result.detail == "different seed produced identical output"


def test_a_check_that_raises_is_a_failure_naming_the_exception(monkeypatch):
    def raises(cfg, step, total):
        raise ContractError("no ramp")

    monkeypatch.setattr(verify, "schedule_rho", raises)
    [result] = run_checks(["scheduler_contract"])
    assert not result.passed and result.detail == "raised ContractError: no ramp"
