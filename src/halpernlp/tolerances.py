"""Central tolerance constants: the inner solvers' acceptance tests, the
per-step slack of the iteration inequalities, and set membership."""

# variational-inequality residual of the generalized projection
VI_TOL = 1e-6

# residual ||Jz + rAz - Jx||_q accepted for a resolvent solve
RESOLVENT_TOL = 1e-8

# per-step slack for the theorem-bearing iteration inequalities
STEP_SLACK_TOL = 1e-7

# Euclidean distance accepted for set membership
MEMBERSHIP_TOL = 1e-7
