"""Dense reference assembly of the shock layer's K' rows and Jacobian.

The library applies the K' rows through `griddisc.Convolution` (a sweep
for an ExpPolyKernel, a block Toeplitz product otherwise) and holds an
exponential kernel's Jacobian annihilated (`griddisc.Annihilated`).
These are the dense forms they replace, built from the window rows of
`conv_matrix` on the layer's extended grid.
"""

import numpy as np

from specflow.griddisc import _conv_rows, _edge_data, _toeplitz_view, fd_columns


def conv_matrix(kernel, m, n, h):
    """Trapezoid convolution matrix on m nodes of spacing h.

    Its blocks are the grid oracle's `_conv_rows` of the kernel table on
    the node offsets, in the kernel's value type.
    """
    C = _conv_rows(_toeplitz_view(kernel.value(h * np.arange(-(m - 1), m))),
                   _edge_data(kernel), h)
    return C.transpose(0, 2, 1, 3).reshape(m * n, m * n)


def dense_kprime_rows(sys):
    """Window rows of conv_matrix(K') on the extended grid, (m n, M n)."""
    n = sys.n
    C = conv_matrix(sys.model.kernel.derivative(), len(sys.x_ext), n, sys.h)
    return np.real(C[sys.win.start * n:sys.win.stop * n])


def dense_shock_jacobian(sys, z, res):
    """The layer Jacobian in (a, free b, active V), assembled densely."""
    n, m = sys.n, sys.m
    a, b, V = sys.unpack(z)
    U = sys.profile(a, b, V)
    Up = sys.profile_derivative(a, b, V)
    dFU = sys.model.dflux_F(U)
    dGU = sys.model.dflux_G(U)
    invW = 1.0 / sys.Wvec
    Cwin = dense_kprime_rows(sys)[:, sys.win.start * n:sys.win.stop * n]
    A = Cwin + np.kron(np.eye(m), np.real(sys.K_jump))
    JV = np.einsum("rik,ikj->rij", A.reshape(m * n, m, n),
                   dFU * invW[:, None, None]).reshape(m * n, m * n)
    Dx = sys.D4.toarray() - np.diag(sys.dwexp)
    DxW = Dx * invW[:, None]
    JV = JV + (dGU[:, :, None, :] * DxW[:, None, :, None]).reshape(m * n, m * n)
    if sys.model.G2 is not None:
        G2U = np.einsum("ijk,mk->mij", sys.model.G2, Up)
        nodes = np.arange(m)
        JV.reshape(m, n, m, n)[nodes, :, nodes, :] += G2U * invW[:, None, None]
    if sys.free_b is not None:
        JV = np.vstack([JV, np.zeros((1, JV.shape[1]))])
    Jp = fd_columns(sys.residual, z, res, sys.n_params)
    return np.hstack([Jp, JV[:, sys.active_flat]])


def annihilated_to_dense(J):
    """J itself from an `Annihilated` Q J and Q."""
    return np.linalg.solve(J.Q.toarray(), J.QJ.toarray())
