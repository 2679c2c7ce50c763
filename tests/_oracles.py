"""Independent reference values for tests.

Everything here was computed and frozen before the solvers were written.
The torsion constants come from two independent classical series that agree
to 2.7e-13; the aperture-path averages come from 2D torus quadrature at two
resolutions agreeing to ~1e-12.

The per-tube loops at the end are the retained references of the
line-factored fast paths in `fisshom.fissures` and `fisshom.verify`: they
draw the phases and evaluate the four half-opening paths of every tube
separately.  The lattice enumeration must reproduce them bit for bit; the
line sums of the measure and energy sweeps reorder the per-tube sums, and
must agree with them to 1e-14 relative.  The per-window loop is the same
kind of reference for `fisshom.stochastic.window_means`, which samples all
windows at once.  The matrix-vector form of the cosine series is the
reference of `fisshom.stochastic.FourierPath`, which sums the modes one by
one in a fixed order: the two agree to rounding.

The SuperLU bed solves are the retained references of the separable
(mode-by-mode) and Krylov routes in `fisshom.limit_flow` and
`fisshom.limit_transport`: the same 3-D matrices, the Kronecker sum of the
solvers' factors plus the face-by-face upwind matrix, factored whole.  The
face-by-face COO assemblies of those matrices are the references of the
solvers' Kronecker factors and of the transport solver's diagonal form;
they number the unknowns as the solvers do, and sum the entries at one
position in the order they append them.
The SuperLU torsion solve is likewise the reference of the sine-transform
route in `fisshom.cell.solve_poisson_cell`.  The Kronecker form of the mode
matrix is the reference of its direct block-diagonal build in
`fisshom._numerics`.
"""

import math

import numpy as np
import scipy.sparse as sp

from fisshom import limit_flow, limit_transport
from fisshom._numerics import (axis_halves, fsum, gauss_legendre,
                               mode_eigenvalues, panel_quadrature, pin_rows,
                               solve_sparse)
from fisshom.fissures import Fissure, HalfPaths, certified_offsets

# integral of the unit-load Dirichlet solution on the unit square
K0_SQUARE = 0.0351442537385
# value of that solution at the center
ETA0_CENTER = 0.0736713532815468

# two-mode aperture path, mean 0.5, amplitudes (0.08, 0.05)
TWO_MODE_MEAN_SQ = 0.25445
TWO_MODE_INV_SQ = 4.2278806107223845
TWO_MODE_INV = 2.0370003042744957


def k0_double_series(terms: int = 400) -> float:
    """sum over odd m, n of 64 / (pi^6 m^2 n^2 (m^2 + n^2))."""
    m = np.arange(1, 2 * terms, 2, dtype=float)
    M, N = np.meshgrid(m, m, indexing="ij")
    return float(np.sum(64.0 / (math.pi**6 * M**2 * N**2 * (M**2 + N**2))))


def k0_single_series(terms: int = 2000) -> float:
    """1/12 - sum over odd n of 16 tanh(n pi / 2) / (pi^5 n^5)."""
    n = np.arange(1, 2 * terms, 2, dtype=float)
    return float(1.0 / 12.0
                 - np.sum(16.0 * np.tanh(n * math.pi / 2.0) / (math.pi**5 * n**5)))


def eta0_series(x, y, terms: int = 200):
    """Partial double cosine series for the unit-load Dirichlet solution."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m = np.arange(1, 2 * terms, 2, dtype=float)
    # b_m = 4 (-1)^{(m-1)/2} / (m pi)
    b = 4.0 * np.where(((m - 1) / 2) % 2 == 0, 1.0, -1.0) / (m * math.pi)
    cx = np.cos(np.multiply.outer(x, m * math.pi))
    cy = np.cos(np.multiply.outer(y, m * math.pi))
    M, N = np.meshgrid(m, m, indexing="ij")
    coef = np.multiply.outer(b, b) / (math.pi**2 * (M**2 + N**2))
    return np.einsum("...m,mn,...n->...", cx, coef, cy)


# ---------------------------------------------------------------------------
# per-window reference of the windowed path means


def window_means_per_window(T, window_len, max_freq, weighted):
    """`window_means` with the quadrature built and the callback called
    once per window."""
    W = max(4, int(math.ceil(2.0 * T / window_len)))
    edges = np.linspace(-T, T, W + 1)
    panels = max(4, int(math.ceil((edges[1] - edges[0]) * max_freq
                                  / math.pi)))
    rows = []
    for k in range(W):
        nodes, weights = panel_quadrature(edges[k], edges[k + 1], panels, 6)
        L = edges[k + 1] - edges[k]
        rows.append([fsum(v) / L for v in weighted(nodes, weights)])
    return [np.array(col) for col in zip(*rows)]


# ---------------------------------------------------------------------------
# matrix-vector reference of the Fourier path


def fourier_series_gemv(path, t, order=0):
    """Value (order 0) or derivative of a `FourierPath` with the cosines of
    all modes formed as one array and summed by a matrix-vector product:
    the form whose rounding depends on the batch shape and the BLAS
    kernel."""
    arg = np.multiply.outer(np.asarray(t, dtype=float), path.freqs) \
        + path.phases + order * 0.5 * math.pi
    out = np.cos(arg) @ (path.amps * path.freqs**order)
    return path.params.mean + out if order == 0 else out


# ---------------------------------------------------------------------------
# per-tube references of the lattice enumeration and the sweeps' line sums


def enumerate_per_tube(geometry, q_path, r_path, phases):
    """`enumerate_fissures` as a list, drawing both lines' phases and
    building both HalfPaths afresh for every tube."""
    a_lo, a_hi = certified_offsets(q_path, r_path)
    eps = geometry.epsilon

    def index_range(extent):
        lo = math.ceil(extent[0] / eps - a_lo - 1e-12)
        hi = math.floor(extent[1] / eps - a_hi + 1e-12)
        return range(lo, hi + 1)

    out = []
    for i in index_range(geometry.x1_extent):
        hp_i = HalfPaths(q_path, r_path, float(phases.alpha(i)),
                         float(phases.beta(i)))
        for j in index_range(geometry.x2_extent):
            hp_j = HalfPaths(q_path, r_path, float(phases.alpha(j)),
                             float(phases.beta(j)))
            out.append(Fissure(i=i, j=j, geometry=geometry,
                               line_x1=hp_i, line_x2=hp_j))
    return out


def depth_quadrature(fissures, panels_per_period):
    """Composite Gauss rule in x3 resolving the fastest aperture path of
    either axis."""
    geo = fissures[0].geometry
    h = geo.height
    max_freq = max(max(f.line_x1.q.max_frequency, f.line_x2.q.max_frequency)
                   for f in fissures)
    rate = max_freq * geo.epsilon ** (-geo.theta)
    n_panels = max(4, int(math.ceil(panels_per_period * h * rate
                                    / (2.0 * math.pi))))
    return panel_quadrature(-h, 0.0, n_panels, order=6)


def volume_integral_per_tube(fissures, phi, panels_per_period=4.0):
    """Integral of phi over the union of fissure tubes, tube by tube: the
    four paths of each tube are evaluated on composite Gauss panels in x3,
    and each rectangular cross-section is integrated by its area times
    the 2x2 Gauss mean, over x2 and then over x1.  The reference of
    `verify._union_volumes` for phi = 1 and phi = x1."""
    if not fissures:
        return 0.0
    geo = fissures[0].geometry
    eps = geo.epsilon
    x3_nodes, x3_w = depth_quadrature(fissures, panels_per_period)
    s_nodes = geo.stretched_depth(x3_nodes)
    g2, _ = gauss_legendre(2)
    gauss_off = g2 - 0.5

    F = len(fissures)
    H = len(x3_nodes)
    a1m = np.empty((F, H)); a1p = np.empty((F, H))
    a2m = np.empty((F, H)); a2p = np.empty((F, H))
    base1 = np.empty(F); base2 = np.empty(F)
    for k, f in enumerate(fissures):
        a1m[k] = f.line_x1.minus(s_nodes)
        a1p[k] = f.line_x1.plus(s_nodes)
        a2m[k] = f.line_x2.minus(s_nodes)
        a2p[k] = f.line_x2.plus(s_nodes)
        base1[k], base2[k] = f.center
    q1 = a1p - a1m
    q2 = a2p - a2m
    mid1 = base1[:, None] + eps * 0.5 * (a1p + a1m)
    mid2 = base2[:, None] + eps * 0.5 * (a2p + a2m)
    x1 = mid1[..., None, None] + (eps * q1)[..., None, None] \
        * gauss_off[None, None, :, None]
    x2 = mid2[..., None, None] + (eps * q2)[..., None, None] \
        * gauss_off[None, None, None, :]
    shape = (F, H, 2, 2)
    x3 = np.broadcast_to(x3_nodes[None, :, None, None], shape)
    vals = np.asarray(phi(x1, x2, x3), dtype=float)
    vals = np.broadcast_to(vals, shape)
    cell_mean = vals.mean(axis=3).mean(axis=2)
    area = eps * eps * q1 * q2
    per_fissure = (cell_mean * area * x3_w[None, :]).sum(axis=1)
    return fsum(per_fissure)


def pair_averages_per_tube(fissures, panels_per_period=6.0):
    """Per-tube height averages of the aperture product, its reciprocal,
    and the product at the interface plane, tube by tube.  Their sums are
    the reference of `verify._energy_sums`."""
    geo = fissures[0].geometry
    h = geo.height
    x3, w = depth_quadrature(fissures, panels_per_period)
    s = geo.stretched_depth(x3)
    F = len(fissures)
    qbar = np.empty(F)
    rbar = np.empty(F)
    q0 = np.empty(F)
    for k, f in enumerate(fissures):
        qq = np.asarray(f.line_x1.width(s) * f.line_x2.width(s), dtype=float)
        qbar[k] = qq @ w / h
        rbar[k] = (1.0 / qq) @ w / h
        q0[k] = float(f.line_x1.width(0.0)) * float(f.line_x2.width(0.0))
    return qbar, rbar, q0


def axis_neighbours(index, axis):
    """Flat (lower, upper) entries of `index` for each pair of neighbours
    along `axis`, without wrap-around."""
    lo, hi = axis_halves(axis, index.ndim)
    return index[lo].ravel(), index[hi].ravel()


def coo_square(rows, cols, vals, n):
    """The n x n CSR matrix of the appended COO blocks, the entries at one
    position summed in the order they were appended."""
    keys, where = np.unique(np.concatenate(rows) * n + np.concatenate(cols),
                            return_inverse=True)
    summed = np.zeros(keys.size)
    np.add.at(summed, where, np.concatenate(vals))
    return sp.csr_matrix((summed, (keys // n, keys % n)), shape=(n, n))


def kronecker_sum(op):
    """The sparse matrix S of the factors `op`, unknowns numbered
    (i1, i2, k) in C order, its three terms added in the order of
    `op.terms()`.  Each term couples the unknowns along the axis of its one
    non-diagonal factor, scaled by the two diagonals across that axis."""
    index = np.arange(np.prod(op.shape), dtype=np.int32).reshape(op.shape)
    S = sp.csr_matrix((index.size,) * 2)
    for axis, M, across in op.terms():
        r, c = np.nonzero(M)
        along = np.moveaxis(index, axis, 0)
        S = S + sp.csr_matrix((np.multiply.outer(M[r, c], across).ravel(),
                               (along[r].ravel(), along[c].ravel())),
                              shape=S.shape)
    return S


def upwind(rows, cols, vals, lo, hi, flux):
    """Append first-order upwind advection across the faces between lo and
    hi; flux is the face-normal velocity times the face size, positive from
    lo towards hi."""
    pos = np.maximum(flux, 0.0)
    neg = np.minimum(flux, 0.0)
    rows.extend((lo, lo, hi, hi))
    cols.extend((lo, hi, lo, hi))
    vals.extend((pos, neg, -pos, -neg))


def two_point(rows, cols, vals, lo, hi, tau):
    """Append the symmetric two-point flux tau * (u_lo - u_hi) between the
    unknowns lo and hi: +tau on both diagonals, -tau off them."""
    t = np.broadcast_to(np.asarray(tau, dtype=float), lo.shape)
    rows.extend((lo, hi, lo, hi))
    cols.extend((lo, hi, hi, lo))
    vals.extend((t, t, -t, -t))


def limit_flow_coo(cfg, bc):
    """The flow matrix assembled face by face: interior two-point fluxes,
    2 tau Dirichlet boundary faces, and the interface stencil coupling four
    cells per column."""
    bedp = limit_flow._Bed(cfg, "plus")
    bedm = limit_flow._Bed(cfg, "minus")
    n1, n2, nzp, nzm = cfg.shape
    grid = np.arange(n1 * n2 * (nzp + nzm)).reshape(n1, n2, nzp + nzm)
    index = {bed.side: grid[:, :, bed.layers] for bed in (bedp, bedm)}
    rows, cols, vals = [], [], []
    for bed in (bedp, bedm):
        kap = bed.kappa
        idx = index[bed.side]
        for axis in range(3):
            tau = kap[axis] * bed.face_area(axis) / bed.deltas[axis]
            two_point(rows, cols, vals, *axis_neighbours(idx, axis), tau)
        faces = []
        if bc.kind != "closed":
            faces.append((idx[:, :, -1 if bed.side == "plus" else 0], 2))
        if bc.kind == "dirichlet":
            faces += [(idx[0], 0), (idx[-1], 0), (idx[:, 0], 1),
                      (idx[:, -1], 1)]
        for cells, axis in faces:
            rows.append(cells.ravel())
            cols.append(cells.ravel())
            vals.append(np.full(cells.size, 2.0 * kap[axis]
                                * bed.face_area(axis) / bed.deltas[axis]))
    ts = limit_flow._trace_system(cfg)
    c1 = ts.lam * (ts.Minv[0, 0] - ts.Minv[1, 0])
    c2 = ts.lam * (ts.Minv[0, 1] - ts.Minv[1, 1])
    area = bedp.face_area(2)
    cp0, cp1 = grid[:, :, nzm].ravel(), grid[:, :, nzm + 1].ravel()
    cm0, cm1 = grid[:, :, nzm - 1].ravel(), grid[:, :, nzm - 2].ravel()
    stencil = ((cp0, area * c1 * -9.0 * ts.gam_p),
               (cp1, area * c1 * ts.gam_p),
               (cm0, area * c2 * 9.0 * ts.gam_m),
               (cm1, area * c2 * -ts.gam_m))
    for target, sign in ((cp0, +1.0), (cm0, -1.0)):
        for src_cells, coef in stencil:
            rows.append(target)
            cols.append(src_cells)
            vals.append(np.full(target.size, sign * coef))
    return coo_square(rows, cols, vals, grid.size)


def limit_transport_coo(cfg):
    """The velocity-free transport matrix S assembled face by face:
    two-point diffusion and reaction in both beds, the exchange block and
    the surface diffusion on the interface plane."""
    meshp = limit_transport._BedMesh(cfg, "plus")
    meshm = limit_transport._BedMesh(cfg, "minus")
    rows, cols, vals = [], [], []
    for mesh in (meshp, meshm):
        for axis in range(3):
            _, area, spacing = mesh.faces(axis)
            two_point(rows, cols, vals, *axis_neighbours(mesh.index, axis),
                      (mesh.diff[axis] * area / spacing).ravel())
        if mesh.reaction != 0.0:
            cells = mesh.index.ravel()
            rows.append(cells)
            cols.append(cells)
            vals.append(mesh.reaction * mesh.volumes().ravel())
    P = meshp.index[:, :, 0].ravel()
    M = meshm.index[:, :, -1].ravel()
    av = meshp.plane_area().ravel()
    ex = cfg.exchange
    c, ch, A = ex.exchange_scale, ex.cosh_factor, ex.advective_factor
    rows.extend((P, P, M, M))
    cols.extend((P, M, P, M))
    vals.extend((av * c * ch, av * (-c * A), av * (-c), av * (c * A * ch)))
    if cfg.surface_diffusion is not None:
        for axis in range(2):
            _, length, spacing = meshp.faces(axis, dims=2)
            two_point(rows, cols, vals,
                      *axis_neighbours(meshp.index[:, :, 0], axis),
                      (cfg.surface_scale * cfg.surface_diffusion[axis]
                       * length / spacing).ravel())
    n = meshp.index.size + meshm.index.size
    return coo_square(rows, cols, vals, n)


def limit_transport_upwind(cfg):
    """The upwind matrix U of the bed and surface velocities assembled face
    by face, upper bed, lower bed, then surface, axis by axis; None without
    velocities."""
    meshp = limit_transport._BedMesh(cfg, "plus")
    meshm = limit_transport._BedMesh(cfg, "minus")
    rows, cols, vals = [], [], []
    for mesh, field in ((meshp, cfg.vel_plus), (meshm, cfg.vel_minus)):
        if field is not None:
            for axis in range(3):
                mids, area, _ = mesh.faces(axis)
                v = field(*np.meshgrid(*mids, indexing="ij"))[axis]
                upwind(rows, cols, vals, *axis_neighbours(mesh.index, axis),
                       (v * area).ravel())
    if cfg.surface_velocity is not None:
        for axis in range(2):
            mids, length, _ = meshp.faces(axis, dims=2)
            v = cfg.surface_velocity(*np.meshgrid(*mids, indexing="ij"))[axis]
            upwind(rows, cols, vals,
                   *axis_neighbours(meshp.index[:, :, 0], axis),
                   (cfg.surface_scale * v * length).ravel())
    if not rows:
        return None
    return coo_square(rows, cols, vals, meshp.index.size + meshm.index.size)


def limit_flow_splu(cfg, bc, source_plus=None, source_minus=None):
    """The coupled flow solve before the separable route: SuperLU on the
    solver's 3-D matrix, gauged by p = 0 in its first cell for closed
    boundaries and then shifted to mean(p_plus) = 0."""
    op, b, bedp, bedm = limit_flow._assemble_system(cfg, bc, source_plus,
                                                    source_minus)
    A = kronecker_sum(op).tocsc()
    b = b.ravel()
    if bc.kind == "closed":
        gauge = np.zeros(b.size, dtype=bool)
        gauge[0] = True
        A, b = pin_rows(A, b, gauge, 0.0)
    p, residual = solve_sparse(A, b)
    p = p.reshape(op.w1.size, op.w2.size, -1)
    p_plus, p_minus = p[:, :, bedp.layers], p[:, :, bedm.layers]
    if bc.kind == "closed":
        shift = float(p_plus.mean())
        p_plus = p_plus - shift
        p_minus = p_minus - shift
    return limit_flow._solution(cfg, p_plus, p_minus, residual, "splu")


def limit_transport_splu(cfg, surface_source=None, surface_source_minus=None):
    """The coupled transport solve before the separable and Krylov routes:
    SuperLU on the 3-D matrix A = S + U, the Kronecker sum of the solver's
    factors plus the face-by-face U, with its Dirichlet rows pinned."""
    op, b, fixed, data, meshp, meshm = limit_transport._assemble_system(
        cfg, surface_source, surface_source_minus)
    A = kronecker_sum(op)
    U = limit_transport_upwind(cfg)
    if U is not None:
        A = A + U
    u, residual = solve_sparse(*pin_rows(A, b, fixed, data))
    return limit_transport.TransportSolution(
        config=cfg, u_plus=u[meshp.index], u_minus=u[meshm.index],
        residual=residual, route="splu", iterations=0,
        face_velocities=limit_transport._face_velocities(cfg, meshp, meshm))


def poisson_cell_splu(n):
    """The torsion cell before the sine-transform route: the five-point
    vertex Laplacian of (-1/2, 1/2)^2 with unit load, factored by SuperLU.
    Returns the (n+1, n+1) profile and its integral k0."""
    h = 1.0 / n
    m = n - 1
    N = m * m
    main = 4.0 * np.ones(N)
    ex = np.ones(N - 1)
    ex[np.arange(1, N) % m == 0] = 0.0
    ey = np.ones(N - m)
    A = sp.diags([main, -ex, -ex, -ey, -ey], [0, 1, -1, m, -m],
                 format="csc") / h**2
    u, _ = solve_sparse(A, np.ones(N))
    profile = np.zeros((n + 1, n + 1))
    profile[1:-1, 1:-1] = u.reshape(m, m)
    return profile, h * h * fsum(u)


def mode_matrix_kron(C, h1, h2, m1, m2, basis):
    """The mode matrix of the separable solve in Kronecker form,
    kron(I, C) + diags(mu1 h1 + mu2 h2), one column block per mode of the
    (m1, m2) horizontal grid in `basis`, in CSC as SuperLU takes it."""
    shift = (mode_eigenvalues(m1, basis)[:, None, None] * h1
             + mode_eigenvalues(m2, basis)[None, :, None] * h2)
    return (sp.kron(sp.identity(m1 * m2), sp.csr_matrix(C), format="csr")
            + sp.diags(shift.ravel())).tocsc()
