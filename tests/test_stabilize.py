import warnings
from dataclasses import replace

import numpy as np
import pytest

from mhdlab import (
    MhdSystem,
    OmegaSpec,
    adjoint_eigenpairs,
    build_grid,
    build_nested_regions,
    closed_loop,
    compute_spectrum,
    make_equilibrium,
    measure_decay,
    omega_fields,
    project_unstable,
    select_actuators,
    simulate_closed_loop,
    synthesize_feedback,
)
from mhdlab.errors import (
    ConfigurationError,
    FitError,
    NumericalError,
    ProjectionConditionError,
    UncontrollableError,
)
from mhdlab import projection, stabilize
from mhdlab.cli import Run
from mhdlab.config import RunConfig
from mhdlab.stabilize import (
    SimulationTrace,
    control_fields,
    initial_state,
)
from oracles import laplacian_symbol, poisson_control_fields, stable_complement_residual
from oracles import stepwise_closed_loop, unstable_component

L = 2 * np.pi


def _loop24(kind="zero"):
    """Unstable rectangle with N=4, actuators, projection, gain, and the
    closed-loop experiment at gamma = 1 (seed 2)."""
    g = build_grid(L, L / 2, 24, 24)
    eq = make_equilibrium(kind, g)
    A = MhdSystem(eq, 1.5)
    rep = compute_spectrum(A, 10, "shift_invert")
    arep = adjoint_eigenpairs(A, rep)
    regions = build_nested_regions(
        g,
        OmegaSpec(shape="disc", radius=0.08 * L),
        omega1_width=0.04 * L,
        omega_star_width=0.08 * L,
    )
    omega = regions.omega
    clusters = [omega_fields(A, cl, omega) for cl in arep.unstable_clusters()]
    acts = select_actuators(clusters, g.cell_area)
    closed = closed_loop(A, rep, arep, acts, omega, 1.0, 8.0, 0.01, np.random.default_rng(2))
    design = closed.design
    return dict(
        grid=g, A=A, rep=rep, arep=arep, omega=omega, proj=design.proj, acts=acts,
        B=design.input_map, design=design, closed=closed,
    )


@pytest.fixture(scope="module")
def loop24():
    return _loop24()


@pytest.fixture(scope="module")
def shear_loop24():
    return _loop24("shear")


class TestUnstableProjection:
    def test_basis_vector_coordinates(self, loop24):
        proj = loop24["proj"]
        c = proj.coords(proj.V[:, 0])
        expect = np.zeros(proj.N)
        expect[0] = 1.0
        assert np.abs(c - expect).max() < 1e-8

    def test_stable_complement_maps_to_zero(self, loop24):
        proj, rep = loop24["proj"], loop24["rep"]
        stable_pair = next(p for p in rep.pairs if not p.unstable)
        c = proj.coords(np.real(stable_pair.coeffs))
        assert np.abs(c).max() < 1e-8

    def test_idempotent(self, loop24):
        proj = loop24["proj"]
        rng = np.random.default_rng(0)
        x = rng.normal(size=loop24["A"].dim)
        once = unstable_component(proj, x)
        twice = unstable_component(proj, once)
        assert np.abs(twice - once).max() <= 1e-8 * np.linalg.norm(x)

    def test_condition_guard(self, loop24):
        fwd = [p for p in loop24["rep"].pairs if p.unstable]
        adj_far = [p for p in loop24["rep"].pairs if not p.unstable][: len(fwd)]
        with pytest.raises(ProjectionConditionError):
            project_unstable(fwd, adj_far)  # orthogonal bases: singular pairing

    def test_no_unstable_modes_rejected(self):
        with pytest.raises(ConfigurationError):
            project_unstable([], [])


class TestSynthesizeFeedback:
    def test_scalar_pole_placement(self):
        gain = synthesize_feedback(np.array([[0.5]]), np.array([[1.0]]), gamma=2.0)
        assert gain.gain[0, 0] == pytest.approx(2.5, rel=1e-10)
        assert gain.achieved_poles[0].real == pytest.approx(-2.0, rel=1e-10)

    def test_empty_block(self):
        gain = synthesize_feedback(np.zeros((0, 0)), np.zeros((0, 0)), gamma=1.0)
        assert gain.gain.shape == (0, 0)

    def test_two_by_two_cluster(self):
        A = np.diag([0.5, 0.5])
        B = np.array([[1.0, 0.2], [0.1, 0.9]])
        gain = synthesize_feedback(A, B, gamma=1.0)
        closed = A - B @ gain.gain
        lam = np.linalg.eigvals(closed)
        assert np.max(lam.real) <= -1.0 + 1e-8

    def test_rank_deficient_input_map(self):
        A = np.diag([0.5, 0.5])
        B = np.zeros((2, 2))
        with pytest.raises(UncontrollableError):
            synthesize_feedback(A, B, gamma=1.0)

    def test_unreached_eigenvalue_named_before_placement(self, monkeypatch):
        # B has full column rank, yet leaves the real eigenvalue 0.2 of the
        # block uncontrolled; the similarity transform hides it from the entries
        rng = np.random.default_rng(4)
        T = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
        A = T @ np.diag([0.5, 0.3, 0.2]) @ np.linalg.inv(T)
        B = T @ np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert np.linalg.matrix_rank(B) == 2

        def no_placement(*args, **kwargs):
            raise AssertionError("pole placement ran on an uncontrollable pair")

        monkeypatch.setattr(stabilize.sla, "solve_sylvester", no_placement)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UncontrollableError, match=r"eigenvalue 0\.2"):
                synthesize_feedback(A, B, gamma=1.0)

    def test_full_loop_poles(self, loop24):
        proj, B = loop24["proj"], loop24["B"]
        gain = synthesize_feedback(np.diag(proj.lambdas.real), B, gamma=1.0)
        assert np.max(gain.achieved_poles.real) <= -1.0 + 1e-8


class TestSimulation:
    def test_single_mode_decay_oracle(self, box16):
        # exact scalar ODE: one diffusive Fourier mode decays at rate 2|lam|
        eq = make_equilibrium("zero", box16)
        A = MhdSystem(eq, 0.0)
        rep = compute_spectrum(A, 2, "shift_invert")
        pair = rep.pairs[0]
        trace = simulate_closed_loop(A, None, np.real(pair.coeffs), 3.0, 0.005)
        rate, hw = measure_decay(trace, (0.5, 3.0))
        assert rate == pytest.approx(2.0 * abs(pair.lam.real), rel=2e-2)
        assert rate == pytest.approx(2.0, rel=2.5e-2)

    def test_open_loop_growth(self, loop24):
        rep, arep, acts, omega = (loop24[k] for k in ("rep", "arep", "acts", "omega"))
        rng = np.random.default_rng(1)
        out = closed_loop(loop24["A"], rep, arep, acts, omega, None, 2.0, 0.01, rng)
        assert out.design.gain is None and out.energy_rate_target is None
        assert out.trace.energies[-1] > out.trace.energies[0]

    def test_closed_loop_decay_rate(self, loop24):
        _assert_decays_at_target(loop24["closed"])

    def test_zero_closed_loop_solves_no_poisson_problem(self, monkeypatch):
        # the applied fields come from the solenoidal basis and the zero
        # equilibrium is never projected, so from the grid to the decay rate
        # no pressure Poisson problem is set up (the package defines no state
        # container to build: test_oracles.py)
        def refuse(name):
            def init(self, *args, **kwargs):
                raise AssertionError(f"{name} built")
            return init

        monkeypatch.setattr(projection.PoissonSolver, "__init__", refuse("PoissonSolver"))
        out = _loop24()["closed"]
        assert np.max(out.design.gain.achieved_poles.real) <= -1.0 + 1e-8
        _assert_decays_at_target(out)

    def test_control_localization_bitwise(self, loop24):
        fields = control_fields(loop24["A"].basis, loop24["acts"], loop24["omega"])
        assert fields.shape == loop24["acts"].shape
        assert np.all(fields[..., ~loop24["omega"]] == 0.0)

    def test_stable_complement_variation_of_constants(self, loop24):
        A, proj = loop24["A"], loop24["proj"]
        x0 = initial_state(A, proj, np.random.default_rng(3))
        trace = simulate_closed_loop(A, loop24["design"], x0, 1.0, 0.01, store_states=True)
        assert stable_complement_residual(trace, A, proj, 0.01) <= 1e-6

    @pytest.mark.parametrize("skew", [False, True])
    @pytest.mark.parametrize("fixture", ["loop24", "shear_loop24"])
    def test_equals_the_stepwise_loop(self, fixture, skew, request):
        # the loop keeps the unstable coordinates and reads the unstable
        # energies and amplitudes from them after it; the oracle takes them
        # at each step in the state space.  Both fixtures have V^T V = I, so
        # the skewed case writes the same projector and loop in the basis
        # V T (coordinates T^-1 c, gain K T), where it is not
        loop = request.getfixturevalue(fixture)
        A, design = loop["A"], loop["design"]
        if skew:
            proj = design.proj
            T = np.eye(proj.N) + 0.3 * np.random.default_rng(6).normal(size=(proj.N, proj.N))
            V = proj.V @ T
            design = replace(
                design,
                proj=replace(proj, V=V, pairing=proj.W.T @ V),
                gain=replace(design.gain, gain=design.gain.gain @ T),
            )
        x0 = initial_state(A, design.proj, np.random.default_rng(2))
        got = simulate_closed_loop(A, design, x0, 8.0, 0.01)
        ref = stepwise_closed_loop(A, design, x0, 8.0, 0.01)
        assert np.array_equal(got.times, ref.times)
        for name in ("energies", "energies_unstable"):
            a, b = getattr(got, name), getattr(ref, name)
            assert np.max(np.abs(a - b) / b) <= 1e-11, name
        # an amplitude can pass through zero: relative to its step's vector
        diff = np.linalg.norm(got.amplitudes - ref.amplitudes, axis=1)
        assert np.max(diff / np.linalg.norm(ref.amplitudes, axis=1)) <= 1e-11

    def test_dt_guard(self, loop24):
        A, proj, B = loop24["A"], loop24["proj"], loop24["B"]
        gain = synthesize_feedback(np.diag(proj.lambdas.real), B, gamma=30.0)
        x0 = proj.V @ np.ones(proj.N)
        with pytest.raises(ConfigurationError):
            simulate_closed_loop(A, replace(loop24["design"], gain=gain), x0, 1.0, 0.05)

    def test_blowup_guard(self, box16):
        eq = make_equilibrium("zero", box16)
        A = MhdSystem(eq, 4.0)  # growth rate 3 on the slowest mode
        rep = compute_spectrum(A, 2, "shift_invert")
        with pytest.raises(NumericalError):
            simulate_closed_loop(A, None, np.real(rep.pairs[0].coeffs), 6.0, 0.01)


def _assert_decays_at_target(out):
    target = out.energy_rate_target
    assert abs(out.decay_rate - target) <= 0.15 * target
    rate_u, _ = measure_decay(out.trace, (4.0, 8.0), use_unstable=True)
    assert rate_u >= 2.0 * 1.0 * (1 - 0.1)


class TestControlFields:
    def test_equal_the_poisson_projection_on_zero(self, loop24):
        acts, omega = loop24["acts"], loop24["omega"]
        got = control_fields(loop24["A"].basis, acts, omega)
        ref = poisson_control_fields(loop24["grid"], acts, omega)
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_equal_the_poisson_projection_on_shear(self):
        run = Run(RunConfig.from_dict({"equilibrium": {"kind": "shear"}}))
        acts, omega = run.actuators, run.regions.omega
        got = control_fields(run.system.basis, acts, omega)
        ref = poisson_control_fields(run.grid, acts, omega)
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_leakage_is_the_share_the_drive_misses(self, loop24):
        # the drive keeps the basis coefficients of each applied field; the
        # leakage is the norm of the rest, relative to the field's
        design, basis = loop24["design"], loop24["A"].basis
        dA = loop24["grid"].cell_area
        fields = control_fields(basis, loop24["acts"], loop24["omega"])
        assert len(design.leakage) == len(fields)
        for f, b, leak in zip(fields, design.drive.T, design.leakage):
            nf2 = np.sum(f**2) * dA
            nb2 = np.sum(basis.synthesize(b.reshape(2, -1)) ** 2) * dA
            assert abs(leak - np.sqrt(nf2 - nb2) / np.sqrt(nf2)) <= 1e-12


class TestMeasureDecay:
    def test_exact_exponential(self):
        t = np.linspace(0, 5, 200)
        trace = SimulationTrace(t, np.exp(-2.0 * t), np.exp(-2.0 * t), np.zeros((200, 0)))
        rate, hw = measure_decay(trace, (0.0, 5.0))
        assert rate == pytest.approx(2.0, abs=1e-6)
        assert hw < 1e-6

    def test_constant_trace(self):
        t = np.linspace(0, 5, 100)
        trace = SimulationTrace(t, np.ones(100), np.ones(100), np.zeros((100, 0)))
        rate, _ = measure_decay(trace, (0.0, 5.0))
        assert rate == pytest.approx(0.0, abs=1e-12)

    def test_two_mode_mixture_late_window(self):
        t = np.linspace(0, 8, 400)
        e = np.exp(-1.0 * t) + np.exp(-3.0 * t)
        trace = SimulationTrace(t, e, e, np.zeros((400, 0)))
        rate, _ = measure_decay(trace, (5.0, 8.0))
        assert rate == pytest.approx(1.0, abs=0.02)

    def test_window_too_short(self):
        t = np.linspace(0, 1, 50)
        trace = SimulationTrace(t, np.exp(-t), np.exp(-t), np.zeros((50, 0)))
        with pytest.raises(FitError):
            measure_decay(trace, (0.99, 1.0))

    def test_nonpositive_energy(self):
        t = np.linspace(0, 1, 50)
        e = np.exp(-t)
        e[30] = 0.0
        trace = SimulationTrace(t, e, e, np.zeros((50, 0)))
        with pytest.raises(FitError):
            measure_decay(trace, (0.0, 1.0))


def test_closed_loop_runs_past_the_dense_cap():
    # 48x48 gives a reduced state of 2 * (48**2 + 2) = 4612 coefficients
    g = build_grid(L, L, 48, 48)
    A = MhdSystem(make_equilibrium("zero", g), 1.5)
    assert A.dim == 4612
    # on the zero equilibrium every basis column is an eigenvector, so a
    # backward Euler step scales it by exactly 1 / (1 - dt * lambda)
    lam = 1.5 + laplacian_symbol(A.basis, 4)[0]
    x0 = np.zeros(A.dim)
    x0[0] = 1.0
    trace = simulate_closed_loop(A, None, x0, 1.0, 0.01)
    expect = (1.0 - 0.01 * lam) ** (-2.0 * np.arange(101))
    assert np.abs(trace.energies / expect - 1.0).max() < 1e-10
    for refused in (A.dense, lambda: compute_spectrum(A, 4, "dense")):
        with pytest.raises(ConfigurationError, match="dense cap") as exc:
            refused()
        assert "dense spectral strategy" in str(exc.value)
        assert "closed-loop" not in str(exc.value)


def test_closed_loop_never_materializes_the_reduced_matrix(loop24, monkeypatch):
    def refuse(self):
        raise AssertionError("MhdSystem.dense called")

    monkeypatch.setattr(MhdSystem, "dense", refuse)
    A, design = loop24["A"], loop24["design"]
    x0 = design.proj.V @ np.ones(design.proj.N)
    trace = simulate_closed_loop(A, design, x0, 1.0, 0.01, store_states=True)
    assert trace.energies[-1] < trace.energies[0]
    assert stable_complement_residual(trace, A, design.proj, 0.01) <= 1e-6
