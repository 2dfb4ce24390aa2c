"""Auto kernel dispatch for Algorithm 2 traversals.

Three kernels serve every query, each bitwise identical to the others
(result bytes and Definition 9 real/pseudo counts):

* **native** — the bundled C classic walk (``repro/core/native/``,
  loaded via cffi ABI mode), the fast path;
* **csr** — :func:`repro.core.query.process_top_k`, the python classic
  walk over the CSR gate graph, the portable fallback for hosts without
  a C compiler;
* **reference** — :func:`repro.core.query.process_top_k_reference`, the
  per-node oracle, never picked by ``auto``.

``select_kernel`` (the ``kernel="auto"`` rule used by serving and
cluster engines) therefore has one crossover: ``native`` whenever the
compiled walker is usable for the structure's shape, else ``csr``.
The committed ``BENCH_query.json`` backs it: native solo p50 beats csr in
every cell, and a batch of queries is served as a loop of solo walks
(the deleted lock-step python batch walk cost more per query than one
native solo walk at every batch width).
``bench-check`` gates both: ``auto`` must not lose to the best solo
kernel, and ``query_batch`` must not lose to a per-query loop at any
batch width.

The ``"native"`` kernel is served through :func:`register_jit_kernel` /
:func:`get_jit_kernel`.  On first demand the bundled C walker
auto-registers itself — building its ``.so`` with the host compiler if
no cached build exists.  When no compiler is present or the build fails,
the ``auto`` path logs one warning and falls back to ``csr``
permanently; only an explicit ``kernel="native"`` request raises
:class:`~repro.exceptions.KernelUnavailableError`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.structure import LayerStructure
from repro.exceptions import KernelUnavailableError

#: Dimensionality ceiling for the native kernel's bitwise contract
#: (numpy's einsum switches its float reduction tree at d=8; the C dot
#: product reproduces the d<=7 association exactly).  Mirrored from
#: :data:`repro.core.native.NATIVE_MAX_DIM` to keep this module import-
#: light; a unit test pins the two equal.
NATIVE_DISPATCH_MAX_DIM = 7

#: Node-count ceiling for the native kernel: structures at or above
#: this size use an int64 gate-state template the C walker does not
#: speak (2**30 nodes ~ 4 GiB of values alone — far beyond the
#: committed bench grid).
NATIVE_DISPATCH_MAX_NODES = 2**30 - 1

VALID_KERNELS = ("auto", "reference", "csr", "native")

#: Registered compiled solo kernel, or ``None``. Filled either by the
#: bundled native walker's lazy auto-registration (see
#: :func:`get_jit_kernel`) or explicitly by :func:`register_jit_kernel`
#: with any compiled walker honouring the ``process_top_k`` signature.
_JIT_KERNEL: Optional[Callable] = None

#: One-shot flag: the native auto-registration is attempted at most
#: once per process (success or failure), so a missing compiler costs
#: one probe, not one per query.
_AUTOLOAD_ATTEMPTED = False


def register_jit_kernel(kernel: Optional[Callable]) -> None:
    """Install (or with ``None``, clear) the ``kernel="native"`` slot.

    The callable must honour the :func:`repro.core.query.process_top_k`
    signature and its bitwise-identity contract — registration is a
    promise, not a check; the equivalence suites are the check.
    Clearing the slot also re-arms the native auto-registration probe.
    """
    global _JIT_KERNEL, _AUTOLOAD_ATTEMPTED
    _JIT_KERNEL = kernel
    if kernel is None:
        _AUTOLOAD_ATTEMPTED = False


def _try_autoload_native() -> None:
    """Attempt (once) to register the bundled C walker."""
    global _AUTOLOAD_ATTEMPTED
    if _AUTOLOAD_ATTEMPTED:
        return
    _AUTOLOAD_ATTEMPTED = True
    try:
        from repro.core.native import get_native_kernel

        kernel = get_native_kernel()
    except Exception:
        # Missing compiler, failed build, failed self-check, absent
        # cffi — all leave the slot empty; get_jit_kernel raises the
        # actionable error for explicit requests, the auto path warns
        # once via native_ready(warn=True) and falls back.
        return
    register_jit_kernel(kernel)


def get_jit_kernel() -> Callable:
    """Return the compiled kernel or raise :class:`KernelUnavailableError`.

    Reached by explicit ``kernel="native"`` requests and by
    ``auto`` dispatches that already verified availability through
    :func:`native_kernel_usable`, so the error names the remedy.
    """
    if _JIT_KERNEL is None:
        _try_autoload_native()
    if _JIT_KERNEL is None:
        raise KernelUnavailableError(
            "kernel='native' requested but no compiled walk kernel is "
            "available: the bundled C walker could not be built — a C "
            "toolchain (cc/gcc/clang) and cffi are required, or a cached "
            "build under the native cache dir; see "
            "repro.core.native.build_info() for the failure detail, or "
            "use kernel='auto' to serve via the python kernels"
        )
    return _JIT_KERNEL


def native_kernel_usable(n_nodes: int, d: int) -> bool:
    """Can ``auto`` dispatch this shape to the native kernel right now?

    Shape gates first (cheap, no import): the bitwise contract covers
    d <= 7 and int32 gate-state structures only.  Then the build/load
    probe — which compiles on first use, logs one warning on failure,
    and is a cached boolean ever after.  Never raises.
    """
    if d > NATIVE_DISPATCH_MAX_DIM or n_nodes > NATIVE_DISPATCH_MAX_NODES:
        return False
    if _JIT_KERNEL is not None:
        return True
    try:
        from repro.core.native import native_ready
    except Exception:  # pragma: no cover - core.native always importable
        return False
    return native_ready(warn=True)


def select_kernel(
    structure: LayerStructure | None = None,
    *,
    n_nodes: int | None = None,
    d: int | None = None,
) -> str:
    """Pick the concrete kernel for an ``auto`` dispatch.

    Pass either a built ``structure`` or explicit ``n_nodes``/``d``
    (both required in that case).  Returns ``"native"`` when the compiled
    walker is usable for that shape *now* (the probe builds on first
    use), else ``"csr"`` — never ``"auto"`` or ``"reference"``.  Batch
    width and pruning do not enter: both kernels prune, and a group of
    queries runs fastest as a loop of native walks.
    """
    if structure is not None:
        n_nodes = structure.n_nodes
        d = structure.values.shape[1]
    if n_nodes is None or d is None:
        raise ValueError("select_kernel needs a structure or both n_nodes and d")
    return "native" if native_kernel_usable(n_nodes, d) else "csr"
