"""Integer polynomial kernels.

The kernels are defined in pykernels; modules call them as attributes of this
package (kern.mul, kern.prem, ...).
"""

from .pykernels import (
    add,
    content,
    deriv,
    div_scalar_exact,
    divmod_monic,
    eval_int,
    eval_qq,
    mul,
    mul_scalar,
    neg,
    normalize,
    prem,
    shift,
    sub,
)
