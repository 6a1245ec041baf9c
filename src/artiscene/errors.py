"""Exception types shared across the package."""


class ArtisceneError(Exception):
    """Base class for all domain errors raised by this package."""


class DegenerateGeometryError(ArtisceneError):
    """Input geometry does not constrain the requested estimate (e.g. collinear points)."""


class LimitViolationError(ArtisceneError):
    """A joint state outside its limits was requested."""


class UnknownPartError(ArtisceneError, KeyError):
    """A part id was referenced that does not exist in the scene."""

    def __str__(self):
        return f"unknown part id: {self.args[0]}" if self.args else "unknown part id"


class SceneFormatError(ArtisceneError):
    """Scene file violates the JSON schema; names the offending field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class SceneValidationError(ArtisceneError):
    """Scene file parsed but violates a model invariant."""


class InvalidViewpointError(ArtisceneError):
    """Observation viewpoint lies inside scene geometry."""


class GraspFailureError(ArtisceneError):
    """Grasp point is too far from the part handle (or no part is there at all)."""


class NoActionError(ArtisceneError):
    """Too few local points to derive a compliance pull direction."""


class RepositionFailedError(ArtisceneError):
    """No free base cell near the reposition target."""


class SegmentationFailedError(ArtisceneError):
    """Mobile-part segmentation selected too few points."""


class EstimationFailedError(ArtisceneError):
    """Screw fit rejected (near-180 degree rotation or vanishing motion)."""


class NoBaseFoundError(ArtisceneError):
    """Base-placement sampling produced no collision-free candidate."""
