"""Build and load wormsim's compiled kernels, all held in _patched.c.

function(name) builds the source with the system cc into a shared library
beside it, on first use and never at import, and returns the named ctypes
function, or None where none can be built or loaded.
"""

import contextlib
import ctypes
import glob
import hashlib
import os

# The library is named by a hash of the source and flags, so an edited
# source never loads a stale build.  No -march=native or -ffast-math: a
# fused multiply-add or a reassociated sum would change the rounding.
_C_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_patched.c")
_CFLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off", "-shared", "-fPIC")


def _build(source: str) -> str | None:
    """Path of the library compiled from source, built beside it if missing.

    The compiler writes to a temporary name beside the source, which
    os.replace then moves to the final name, so a reader never sees half a
    library.  Returning a library, built or reused, removes the older
    builds beside it.  None, silently and removing nothing, when the source
    is unreadable, there is no cc, the directory is read-only or the build fails.
    """
    try:
        with open(source, "rb") as fh:
            text = fh.read()
    except OSError:
        return None
    digest = hashlib.sha256(text + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    stem = os.path.splitext(source)[0]
    lib = f"{stem}-{digest}.so"
    if not os.path.exists(lib):
        # Only a build needs these; importing subprocess takes a few ms.
        import shutil
        import subprocess
        import tempfile

        cc = shutil.which("cc")
        if cc is None:
            return None
        try:
            fd, tmp = tempfile.mkstemp(prefix=os.path.basename(lib) + ".", suffix=".tmp",
                                       dir=os.path.dirname(source))
        except OSError:
            return None
        os.close(fd)
        try:
            subprocess.run(
                [cc, *_CFLAGS, "-o", tmp, source, "-lm"], check=True, timeout=120,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            os.replace(tmp, lib)
        except (OSError, subprocess.SubprocessError):
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            return None
    for old in set(glob.glob(glob.escape(stem) + "-" + "[0-9a-f]" * 16 + ".so")) - {lib}:
        with contextlib.suppress(OSError):
            os.unlink(old)
    return lib


def function(name: str):
    """The named function of _C_SOURCE's library, or None where the library
    cannot be built or loaded or lacks that symbol."""
    lib = _build(_C_SOURCE)
    try:
        return None if lib is None else getattr(ctypes.CDLL(lib), name)
    except (OSError, AttributeError):
        return None
