"""Exception types shared across the package."""


class FrontlabError(Exception):
    """Base class for all package-specific failures."""


class GridMismatchError(FrontlabError):
    """Two fields that must share a grid do not."""


class FieldFormatError(FrontlabError, ValueError):
    """A stored run file is not what a finished run writes: a field not in
    the format of `grid.dump_field`, a metadata file not in that of
    `grid.meta_text`, or a FAILED marker in the run directory."""


class StabilityError(FrontlabError):
    """A requested time step exceeds the CFL bound."""


class FrontEscapeError(FrontlabError):
    """The zero contour reached the far-field containment ring."""


class ConstructionError(FrontlabError):
    """Initial data could not be built or certified."""


class ConfigError(FrontlabError):
    """A scenario configuration file is invalid."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
