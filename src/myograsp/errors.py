"""Exception types shared across the package.

The CLI maps these onto distinct exit codes (config -> 2, data/IO -> 3,
numeric -> 4).
"""

import tokenize
import zipfile

# what np.load raises on a damaged .npz container: an unreadable, cut or
# non-zip file, a missing entry, a zip entry flagged as encrypted, patched
# or compressed by an unknown method, or an .npy header that does not parse
NPZ_READ_ERRORS = (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile,
                   NotImplementedError, RuntimeError, tokenize.TokenError)


class MyograspError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MyograspError):
    """Invalid configuration: bad keys, out-of-range values, mode mismatch."""


class DataError(MyograspError):
    """Problems with input data files or their contents."""


class EmptyOverlapError(DataError):
    """Stream alignment produced zero surviving pairs."""


class NumericError(MyograspError):
    """Non-finite values encountered where finite math is required."""
