"""Stand-ins for the removed compute-kernel backend registry.

numpy is the only compute-kernel implementation, so the registry that chose
between backends is gone.  Its public names stay importable from
:mod:`repro` and :mod:`repro.api` through :func:`module_getattr` until their
removal (see ``docs/api.md``): each warns once per process and behaves as
the registry did with only numpy installed.  Any other backend name raises
:class:`~repro.exceptions.ValidationError`.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.exceptions import ValidationError

_TOP_LEVEL = ("available_backends", "active_backend_name", "set_default_backend", "use_backend")
#: The deprecated names each module resolves through its ``__getattr__``.
NAMES = {
    "repro": _TOP_LEVEL,
    "repro.api": _TOP_LEVEL + (
        "KernelBackend", "BACKEND_ENV_VAR", "unavailable_backends", "create_backend",
        "get_backend", "resolve_backend", "active_backend", "describe_backends",
    ),
}
_warned: set[str] = set()


def warn_once(name: str, stacklevel: int = 3) -> None:
    """Emit ``name``'s DeprecationWarning the first time it is used."""
    if name not in _warned:
        _warned.add(name)
        warnings.warn(
            f"{name} is deprecated and will be removed; numpy is the only "
            "compute-kernel implementation",
            DeprecationWarning,
            stacklevel=stacklevel,
        )


def module_getattr(module: str) -> Callable[[str], Any]:
    """The ``__getattr__`` of ``module``, resolving ``NAMES[module]`` below."""

    def __getattr__(name: str) -> Any:
        if name not in NAMES[module]:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        warn_once(f"{module}.{name}")
        return globals()[name]

    return __getattr__


def backend_argument(function: str, backend: Any) -> None:
    """Check a deprecated ``backend=`` argument, warning once per function."""
    if backend is not None:
        warn_once(f"the backend= argument of {function}", stacklevel=4)
        resolve_backend(backend)


class KernelBackend:
    name = "numpy"
    compiled = False

    def compile_status(self) -> dict[str, Any]:
        return {"name": self.name, "compiled": self.compiled, "detail": "numpy"}


_NUMPY = KernelBackend()
BACKEND_ENV_VAR = "MANI_RANK_BACKEND"


def resolve_backend(backend: Any = None) -> KernelBackend:
    if backend is None or backend == "numpy" or isinstance(backend, KernelBackend):
        return _NUMPY
    raise ValidationError(f"unknown kernel backend {backend!r}; available: numpy")


create_backend = get_backend = set_default_backend = resolve_backend


@contextmanager
def use_backend(name: str) -> Iterator[KernelBackend]:
    yield resolve_backend(name)


def available_backends() -> tuple[str, ...]:
    return ("numpy",)


def unavailable_backends() -> dict[str, str]:
    return {}


def active_backend() -> KernelBackend:
    return _NUMPY


def active_backend_name() -> str:
    return _NUMPY.name


def describe_backends() -> dict[str, Any]:
    return {
        "active": _NUMPY.compile_status(),
        "available": list(available_backends()),
        "unavailable": unavailable_backends(),
        "env_var": BACKEND_ENV_VAR,
    }
