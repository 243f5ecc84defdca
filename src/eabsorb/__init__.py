"""Design and simulation toolkit for actively controlled sound absorbers.

A current-driven loudspeaker in a sealed box is shaped, via two discrete
control filters acting on the front and cavity pressures, into a surface
presenting a prescribed acoustic impedance.  The package covers the whole
workflow: lumped plant modeling, controller synthesis and stability
analysis, robustness studies, parameter identification, a virtual
two-microphone impedance tube, and an exact sampled model of the closed
loop of the discrete realization.
"""

from . import analysis, dsp, errors, identify, model, rational, synthesis, vkundt
from .analysis import *
from .dsp import *
from .errors import *
from .identify import *
from .model import *
from .rational import *
from .synthesis import *
from .vkundt import *

__version__ = "0.1.0"

# the public surface: each module's own, module by module
__all__ = [
    *analysis.__all__, *dsp.__all__, *errors.__all__, *identify.__all__, *model.__all__,
    *rational.__all__, *synthesis.__all__, *vkundt.__all__,
]
