"""varlab: discrete variational laboratory for amplitude-damped Dirichlet energies.

Minimizes  J(v) = ∫ j(x,∇v)/(1+b(x)|v|)² + ½∫v² − ∫fv  over zero-trace P1
fields via a two-level truncation schedule (clamping the amplitude in the
denominator, then the datum), and audits the classical a priori bounds that
make the scheme converge, together with a radial blow-up example showing why
the gradient term alone is not coercive.
"""

__version__ = "0.13.0"
