"""Fixtures shared by the kernel-dispatch and native-kernel tests."""

import pytest

from repro.core import dispatch
from repro.core.native import kernel as native_kernel_mod


@pytest.fixture
def isolated_native_state(monkeypatch):
    """Snapshot + clear every module-global the load path mutates, so a
    test can simulate a fresh process; restores the real state after."""
    nk = native_kernel_mod
    snapshot = (nk._ffi, nk._lib, nk._status, nk._detail, nk._warned)
    monkeypatch.setattr(dispatch, "_JIT_KERNEL", None)
    monkeypatch.setattr(dispatch, "_AUTOLOAD_ATTEMPTED", False)
    nk._reset_for_tests()
    yield nk
    nk._ffi, nk._lib, nk._status, nk._detail, nk._warned = snapshot
