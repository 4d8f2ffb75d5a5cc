"""Unit tests for farm configuration and the auth primitives (ISSUE 10).

Covers the knobs the CLI exposes (``--heartbeat``/``--worker-timeout``/
``--auth-token``; a worker takes the last two), their
:class:`ConfigError` validation, the ``farm=`` mapping form, and the
HMAC challenge-response helpers whose domain separation keeps one
side's proof from being reflected back.
"""

import pytest

from repro.analysis.farm import (
    HEARTBEAT_INTERVAL,
    LIVENESS_TIMEOUT,
    PROTOCOL_VERSION,
    FarmCoordinator,
    _check_intervals,
    auth_mac,
    check_mac,
    normalize_farm,
)
from repro.analysis.worker import WorkerServer
from repro.util.errors import ConfigError


# ------------------------------------------------------------ farm mapping
def test_normalize_farm_accepts_list():
    assert normalize_farm(["a:1", "b:2"]) == {"addrs": ["a:1", "b:2"]}


def test_normalize_farm_accepts_mapping():
    cfg = normalize_farm(
        {"addrs": ["a:1"], "auth_token": "s", "heartbeat": 0.5, "liveness": 3.0}
    )
    assert cfg["addrs"] == ["a:1"]
    assert cfg["auth_token"] == "s"


def test_normalize_farm_none_and_empty():
    assert normalize_farm(None) is None
    assert normalize_farm([]) is None
    assert normalize_farm({}) is None


def test_normalize_farm_unknown_key():
    with pytest.raises(ConfigError, match="unknown farm option"):
        normalize_farm({"addrs": ["a:1"], "hartbeat": 0.5})


# --------------------------------------------------------------- intervals
def test_intervals_validated():
    assert _check_intervals(1.0, 15.0) == (1.0, 15.0)
    with pytest.raises(ConfigError, match="heartbeat"):
        _check_intervals(0, 15.0)
    with pytest.raises(ConfigError, match="liveness"):
        _check_intervals(1.0, -1)
    # a liveness ceiling at or under the ping cadence declares every
    # worker dead between two pings
    with pytest.raises(ConfigError, match="exceed"):
        _check_intervals(2.0, 2.0)


def test_coordinator_validates_intervals_and_reconnect():
    with pytest.raises(ConfigError, match="exceed"):
        FarmCoordinator([{}], ["a:1"], heartbeat=5.0, liveness=1.0)
    with pytest.raises(ConfigError, match="reconnect"):
        FarmCoordinator([{}], ["a:1"], reconnect=-1)
    coord = FarmCoordinator([{}], ["a:1"], heartbeat=0.5, liveness=4.0)
    assert (coord.heartbeat, coord.liveness) == (0.5, 4.0)
    assert (HEARTBEAT_INTERVAL, LIVENESS_TIMEOUT) == (1.0, 15.0)  # defaults


def test_worker_validates_its_knobs():
    with pytest.raises(ConfigError, match="idle timeout"):
        WorkerServer(idle_timeout=0)
    with pytest.raises(ConfigError, match="auth token"):
        WorkerServer(auth_token="")


# ------------------------------------------------------------------- auth
def test_auth_mac_roundtrip():
    mac = auth_mac("secret", "worker", "nonce123")
    assert check_mac("secret", "worker", "nonce123", mac)
    assert not check_mac("other", "worker", "nonce123", mac)
    assert not check_mac("secret", "worker", "nonce124", mac)
    assert not check_mac("secret", "worker", "nonce123", mac + "00")
    assert not check_mac("secret", "worker", "nonce123", None)
    assert not check_mac("secret", "worker", "nonce123", 12345)


def test_auth_mac_domain_separation():
    """The two directions' proofs must differ for the same token and
    nonce, or a worker could reflect the coordinator's own proof."""
    assert auth_mac("t", "coordinator", "n") != auth_mac("t", "worker", "n")


def test_auth_mac_binds_protocol_version(monkeypatch):
    import repro.analysis.farm as farm

    before = auth_mac("t", "worker", "n")
    monkeypatch.setattr(farm, "PROTOCOL_VERSION", PROTOCOL_VERSION + 1)
    assert farm.auth_mac("t", "worker", "n") != before
