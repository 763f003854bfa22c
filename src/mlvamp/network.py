"""Multi-layer stochastic generative networks: construction, sampling,
SVD-form storage and JSON serialization.

A network is a chain  z_0 -> z_1 -> ... -> z_L  where z_0 is a standard
Gaussian input, each stage maps z_{l-1} to z_l, and the final stage output
z_L = y is the observation.  Linear stages are held in thin factored form
W = V_out diag(s) V_in (V_in applied directly, not transposed): V_out is
n_out x r and V_in is r x n_in for the r = len(s) singular directions, which
is all the inference algorithm and the SE recursion need.
"""
import json
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import special

from .errors import ConfigError, MlvampError
from .gauss import relu_gauss_moments

BUILDER_PROCEDURE = "build_synthetic_network/v2"
DOCUMENT_VERSION = 2
SUPPORTED_ACTIVATIONS = ("relu", "identity")

# The Gram route's orthogonality error is 0.1-1 x eps * cond(W)^2; below this
# bound it keeps a 100-fold margin on LinearStage.validate's default 1e-10.
GRAM_ROUTE_MAX_ERR = 1e-12


def is_integer(v):
    """An integer, NumPy's included, and not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_real(v):
    """A finite real number, NumPy's included, and not a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def positive_integers(v):
    """Whether v is a nonempty list (or tuple) of positive integers."""
    return (isinstance(v, (list, tuple)) and len(v) > 0
            and all(is_integer(d) and d > 0 for d in v))


@dataclass(eq=False)
class LinearStage:
    """z_out = V_out diag(s) V_in z_in + b + noise, noise ~ N(0, I/nu).

    The factors are thin: V_out is n_out x r with orthonormal columns and
    V_in is r x n_in with orthonormal rows, r = len(s).  Wider factors (the
    square ones of a version-1 network document) are cut to their first r
    columns of V_out and rows of V_in; every stored factor owns its memory,
    so a cut never keeps a square array alive.  nu = inf marks a
    deterministic stage.  b_bar = V_out^T b is cached for the denoiser.
    """

    v_out: np.ndarray
    v_in: np.ndarray
    s: np.ndarray
    b: np.ndarray
    nu: float
    b_bar: np.ndarray = None

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        r = len(self.s)
        v_out, v_in = np.asarray(self.v_out), np.asarray(self.v_in)
        self.v_out = np.require(v_out[:, :r] if v_out.shape[1] > r else v_out,
                                float, ["C", "O"])
        self.v_in = np.require(v_in[:r] if v_in.shape[0] > r else v_in,
                               float, ["C", "O"])
        if self.v_out.shape[1] != r or self.v_in.shape[0] != r:
            raise ValueError("V_out needs len(s) columns and V_in len(s) rows")
        if self.b.shape != (self.n_out,):
            raise ValueError("bias length must equal the output dimension")
        if np.any(self.s < 0):
            raise ValueError("singular values must be nonnegative")
        if r > min(self.n_in, self.n_out):
            raise ValueError("more singular values than min dimension")
        if not (self.nu > 0):
            raise ValueError("nu must be positive (inf for deterministic)")
        if self.b_bar is None:
            self.b_bar = self.v_out.T @ self.b

    @property
    def kind(self):
        return "linear"

    @property
    def n_in(self):
        return self.v_in.shape[1]

    @property
    def n_out(self):
        return self.v_out.shape[0]

    def to_dense(self):
        return (self.v_out * self.s) @ self.v_in

    # The SVD coordinates: svd_in(x) = V_in x, svd_out(x) = V_out^T x, and
    # back, from_svd_in(u) = V_in^T u, from_svd_out(u) = V_out u.  Each takes
    # its matrix as x @ M, so a (T, n) batch of messages is one product.
    def svd_in(self, x):
        return x @ self.v_in.T

    def svd_out(self, x):
        return x @ self.v_out

    def from_svd_in(self, u):
        return u @ self.v_in

    def from_svd_out(self, u):
        return u @ self.v_out.T

    def apply(self, z):
        return self.from_svd_out(self.s * self.svd_in(z)) + self.b

    def sample_output(self, z, rng):
        out = self.apply(z)
        if np.isfinite(self.nu):
            out = out + rng.normal(0.0, 1.0 / math.sqrt(self.nu), self.n_out)
        return out

    def validate(self, tol=1e-10):
        """Finite s and b, and factors orthonormal to within tol (a NaN
        anywhere in a factor fails the test)."""
        if not (np.all(np.isfinite(self.s)) and np.all(np.isfinite(self.b))):
            raise MlvampError("non-finite singular values or bias")
        eye = np.eye(len(self.s))
        for v in (self.v_out, self.v_in.T):
            err = np.max(np.abs(v.T @ v - eye), initial=0.0)
            if not err <= tol:
                raise MlvampError(f"orthogonality violated: max |V^T V - I| = {err:.2e}")


@dataclass(eq=False)
class NonlinearStage:
    """Componentwise z_out = phi(z_in) + xi on an n-dimensional layer, with
    xi ~ N(0, noise_var) i.i.d. (noise_var = 0: deterministic).

    This is the one description of the channel: sampling, the componentwise
    denoisers and the state evolution all read it.  A stage is checked when
    it is made: its activation is one of SUPPORTED_ACTIVATIONS and its
    noise_var finite and nonnegative.
    """

    activation: str
    noise_var: float
    n: int

    def __post_init__(self):
        if self.activation not in SUPPORTED_ACTIVATIONS:
            raise ValueError(f"activation {self.activation!r} not supported "
                             f"(supported: {SUPPORTED_ACTIVATIONS})")
        if not (math.isfinite(self.noise_var) and self.noise_var >= 0):
            raise ValueError(
                f"noise_var must be finite and >= 0, not {self.noise_var!r}")

    @property
    def kind(self):
        return "nonlinear"

    @property
    def n_in(self):
        return self.n

    @property
    def n_out(self):
        return self.n

    def apply(self, z):
        if self.activation == "relu":
            return np.maximum(z, 0.0)
        return np.asarray(z, dtype=float)

    def sample_output(self, z, rng):
        out = self.apply(z)
        if self.noise_var > 0:
            out = out + rng.normal(0.0, math.sqrt(self.noise_var), self.n)
        return out

    def validate(self, tol=None):
        """Nothing left to check: the constructor checked the stage."""


def observed_as_middle(stage, gamma_plus):
    """(stage, gamma+, gamma-) of the observed stage (or of the SE's
    LayerStatistics) as a middle stage: the noiseless stage whose output
    message r- = y has the precision nu (linear) or 1/noise_var (nonlinear)."""
    if stage.kind == "linear":
        if math.isinf(stage.nu):
            raise MlvampError("observed linear stage requires finite noise precision")
        return replace(stage, nu=math.inf), gamma_plus, stage.nu
    if stage.noise_var <= 0:
        raise MlvampError(
            "a deterministic nonlinear observed stage has no middle form; "
            "use a noisy channel or a linear measurement stage")
    return replace(stage, noise_var=0.0), gamma_plus, 1.0 / stage.noise_var


@dataclass(eq=False)
class NetworkSpec:
    """Ordered stage chain with a standard-Gaussian input of dimension n0."""

    n0: int
    stages: tuple
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.stages = tuple(self.stages)
        if not (is_integer(self.n0) and self.n0 > 0) or not self.stages:
            raise ConfigError(f"need n0 a positive integer (not {self.n0!r}) "
                              f"and at least one stage")
        prev = self.n0
        for i, st in enumerate(self.stages):
            if st.n_in != prev:
                raise ConfigError(
                    f"stage {i + 1}: input dim {st.n_in} != previous output {prev}")
            prev = st.n_out

    @property
    def n_layers(self):
        """Number of stages L; hidden variables are z_0 .. z_{L-1}."""
        return len(self.stages)

    @property
    def dims(self):
        """[N_0, ..., N_L] including the observed output."""
        return [self.n0] + [st.n_out for st in self.stages]

    def validate(self, tol=1e-10):
        for i, st in enumerate(self.stages):
            try:
                st.validate(tol)
            except MlvampError as exc:
                raise ConfigError(f"stage {i + 1}: {exc}") from exc


@dataclass(eq=False)
class Trajectory:
    """One sampled realization z_0 .. z_L."""

    z: list
    seed: int


def svd_decompose_stage(W, b, nu):
    """Factor a dense weight matrix into a LinearStage (W = V_out diag(s) V_in,
    thin factors of the numerical rank)."""
    W = np.asarray(W, dtype=float)
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(W)) or not np.all(np.isfinite(b)):
        raise ValueError("non-finite entries in weight matrix or bias")
    u, s, vh = np.linalg.svd(W, full_matrices=False)
    if s.size and s[0] > 0:
        r = int(np.sum(s > s[0] * max(W.shape) * np.finfo(float).eps))
    else:
        r = 0
    return LinearStage(v_out=u, v_in=vh, s=s[:r], b=b, nu=nu)


def _gaussian(seq, shape, sd):
    """The Gaussian W (entries N(0, sd^2)) of a stage's own seed stream seq:
    every call draws the same matrix."""
    return np.random.default_rng(seq).normal(0.0, sd, size=shape)


def _gram_eigh(seq, shape, sd):
    """(lam, V): the eigendecomposition of the smaller Gram matrix of the W
    that _gaussian(seq, shape, sd) draws, lam descending, or None where the
    Gram route would cost orthogonality.  W is dropped before np.linalg.eigh
    runs.

    A tall W (n_out >= n_in) has W^T W = V diag(s^2) V^T, a wide W has
    W W^T = U diag(s^2) U^T (_gram_stage forms the other factor).  The
    factors' orthogonality error grows as eps * cond(W)^2, so a W with
    eps * lambda_max / lambda_min above GRAM_ROUTE_MAX_ERR (a square
    Gaussian, say) goes to the SVD.
    """
    W = _gaussian(seq, shape, sd)
    gram = W.T @ W if shape[0] >= shape[1] else W @ W.T
    del W
    gram *= -1.0    # eigh sorts ascending, so this gives s in descending order
    lam, v = np.linalg.eigh(gram)
    del gram
    lam *= -1.0
    if not lam[-1] > 0 or np.finfo(float).eps * lam[0] / lam[-1] > GRAM_ROUTE_MAX_ERR:
        return None
    return lam, v


def _gram_stage(seq, shape, sd, eig, b):
    """The deterministic LinearStage of the W that _gaussian(seq, shape, sd)
    draws, drawn again, from eig = _gram_eigh(seq, shape, sd): V_in = V^T and
    V_out = W V / s for a tall W, V_out = U and V_in = U^T W / s for a wide
    one, and svd_decompose_stage(W) where eig is None."""
    W = _gaussian(seq, shape, sd)
    if eig is None:
        return svd_decompose_stage(W, b, math.inf)
    lam, v = eig
    s = np.sqrt(lam)
    if shape[0] >= shape[1]:
        v_out = W @ v
        del W   # before LinearStage copies V^T into C order
        v_out /= s
        return LinearStage(v_out=v_out, v_in=v.T, s=s, b=b, nu=math.inf)
    v_in = v.T @ W
    v_in /= s[:, None]
    return LinearStage(v_out=v, v_in=v_in, s=s, b=b, nu=math.inf)


def _hidden_chain_sample(stages, n0, rng):
    z = rng.standard_normal(n0)
    for st in stages:
        z = st.sample_output(z, rng)
    return z


def build_synthetic_network(dims, rho, kappa, snr_db, n_meas, seed):
    """Random alternating (linear, relu) chain with a conditioned measurement.

    dims = [N0, h1, ..., hk] gives the input dimension and the hidden widths;
    the chain is input -> (linear, relu) x k -> linear measurement of n_meas
    rows.  rho, kappa and snr_db are finite reals, n_meas is a positive
    integer and seed a nonnegative one.  Hidden weights are
    i.i.d. Gaussian with the bias mean set so a fraction rho of
    pre-activations is positive; each W is factored through the
    eigendecomposition of its smaller Gram matrix, or by the SVD where that
    matrix is too ill-conditioned.  The measurement matrix is U diag(s) V^T
    with log-spaced singular values s of condition number kappa and U, V the
    singular vectors of an n_meas x N_last N(0, 1) Gaussian, factored the
    same way.  U diag(s) V^T is a function of that Gaussian which commutes
    with rotations on either side (it is blind to the signs of paired
    singular vectors), so its law is bi-orthogonally invariant.  Measurement
    noise is scaled to snr_db below the signal power (pilot-estimated over
    10 trajectories).

    Every W and b has its own seed stream, so the build runs in the order
    that holds least at once: first every bias and every Gram
    eigendecomposition, the measurement's last (_gram_eigh, which drops its
    W before eigh runs), then each stage's factors from its W drawn again
    (_gram_stage).  A seed gives the same network, to rounding, as when every
    factor came from np.linalg.svd: only the signs of paired singular vectors
    may differ.
    """
    if not positive_integers(dims):
        raise ConfigError(f"dims must be a nonempty list of positive integers, "
                          f"not {dims!r}")
    dims = [int(d) for d in dims]
    for name, value in (("rho", rho), ("kappa", kappa), ("snr_db", snr_db)):
        if not is_real(value):
            raise ConfigError(f"{name} must be a finite real number, not {value!r}")
    if kappa < 1:
        raise ConfigError("kappa must be >= 1")
    if not (0 < rho < 1):
        raise ConfigError("rho must lie in (0, 1)")
    if not (is_integer(n_meas) and n_meas > 0):
        raise ConfigError(f"n_meas must be a positive integer, not {n_meas!r}")
    if not (is_integer(seed) and seed >= 0):
        raise ConfigError(f"seed must be a nonnegative integer, not {seed!r}")

    n_hidden = len(dims) - 1
    # streams 2i and 2i + 1 draw hidden stage i's W and b, 2 n_hidden the
    # measurement's Gaussian and the last the pilot trajectories; stream
    # 2 n_hidden + 1 drew the v1 builder's second Haar matrix and stays
    # spawned, so every other stream keeps its v1 seed
    children = np.random.SeedSequence(seed).spawn(2 * n_hidden + 3)
    shapes = [(dims[i], dims[i - 1]) for i in range(1, n_hidden + 1)]
    biases = []
    tau = 1.0  # running per-component second moment of the layer input
    sigma_b_frac = 0.2
    for i, shape in enumerate(shapes):
        rng_b = np.random.default_rng(children[2 * i + 1])
        pre_var = tau  # var((W x)_n) with W ~ N(0, 1/n_in) and E x_j^2 = tau
        sigma_b = sigma_b_frac * math.sqrt(pre_var)
        beta = special.ndtri(rho) * math.sqrt(pre_var + sigma_b**2)
        biases.append(rng_b.normal(beta, sigma_b, size=shape[0]))
        _, tau = relu_gauss_moments(beta, pre_var + sigma_b**2)

    n_last = dims[-1]
    draws = [(children[2 * i], shape, 1.0 / math.sqrt(shape[1]))
             for i, shape in enumerate(shapes)]
    draws.append((children[2 * n_hidden], (n_meas, n_last), 1.0))
    eigs = [_gram_eigh(*draw) for draw in draws]
    factored = []
    for i, (draw, b) in enumerate(zip(draws, biases + [np.zeros(n_meas)])):
        factored.append(_gram_stage(*draw, eigs[i], b))
        eigs[i] = None   # a tall stage holds its own C-order copy of V^T
    stages = []
    for st in factored[:-1]:
        stages += [st, NonlinearStage("relu", 0.0, st.n_out)]
    s = np.logspace(-math.log10(kappa), 0.0, min(n_meas, n_last))
    s = s / math.sqrt(np.mean(s**2))
    meas_clean = replace(factored[-1], s=s)

    # pilot trajectories fix the measurement noise relative to signal power
    rng_pilot = np.random.default_rng(children[2 * n_hidden + 2])
    power = float(np.mean([
        np.sum(meas_clean.apply(_hidden_chain_sample(stages, dims[0], rng_pilot))**2)
        for _ in range(10)
    ]))
    sigma2 = power * 10.0 ** (-snr_db / 10.0) / n_meas
    meas = replace(meas_clean, nu=1.0 / sigma2)

    meta = {
        "builder": BUILDER_PROCEDURE,
        "builder_args": {"dims": dims, "rho": rho, "kappa": kappa,
                         "snr_db": snr_db, "n_meas": int(n_meas), "seed": int(seed)},
        "rank_deficient_measurement": bool(n_meas > n_last),
        "pilot_signal_power": power,
        "measurement_noise_var": sigma2,
    }
    return NetworkSpec(n0=dims[0], stages=stages + [meas], meta=meta)


def sample_trajectory(net, seed):
    """Draw one realization z_0 .. z_L."""
    rng = np.random.default_rng(seed)
    z = [rng.standard_normal(net.n0)]
    for st in net.stages:
        z.append(st.sample_output(z[-1], rng))
    return Trajectory(z=z, seed=seed)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def _nu_to_json(nu):
    return "inf" if math.isinf(nu) else nu


def _nu_from_json(v):
    return math.inf if v == "inf" else float(v)


def network_to_json(net, mode="auto"):
    """Serialize a NetworkSpec to a JSON-compatible dict.

    mode "recipe" stores the builder arguments (orthogonal factors regenerate
    from the seed); "explicit" embeds the matrices; "auto" picks recipe when
    the network came from build_synthetic_network.  Version 2 documents hold
    the thin factors; a version-1 document's square factors load through the
    LinearStage constructor, which keeps their first len(s) columns / rows.
    """
    if mode == "auto":
        mode = "recipe" if net.meta.get("builder") else "explicit"
    if mode == "recipe" and not net.meta.get("builder"):
        raise ConfigError("network has no builder recipe; use explicit mode")
    doc = {"format": "mlvamp-network", "version": DOCUMENT_VERSION, "mode": mode,
           "dims": net.dims, "n0": net.n0, "stages": [], "meta": net.meta}
    for st in net.stages:
        if st.kind == "linear":
            entry = {"kind": "linear", "n_in": st.n_in, "n_out": st.n_out,
                     "s": st.s.tolist(), "b_bar": st.b_bar.tolist(),
                     "nu": _nu_to_json(st.nu)}
            if mode == "explicit":
                entry["v_out"] = st.v_out.tolist()
                entry["v_in"] = st.v_in.tolist()
                entry["b"] = st.b.tolist()
        else:
            entry = {"kind": "nonlinear", "activation": st.activation,
                     "noise_var": st.noise_var, "n": st.n}
        doc["stages"].append(entry)
    return doc


def _stage_from_json(entry):
    if entry["kind"] == "linear":
        return LinearStage(v_out=np.array(entry["v_out"]),
                           v_in=np.array(entry["v_in"]).reshape(-1, entry["n_in"]),
                           s=np.array(entry["s"]), b=np.array(entry["b"]),
                           nu=_nu_from_json(entry["nu"]))
    return NonlinearStage(entry["activation"], entry["noise_var"], entry["n"])


def _same_header(doc, net):
    """``net``, once the document's own n0 and dims (if stored) are its."""
    for key, value in (("n0", net.n0), ("dims", net.dims)):
        if doc.get(key, value) != value:
            raise ConfigError(f"network document {key} {doc[key]!r} does not "
                              f"match its network's {value!r}")
    return net


def network_from_json(doc):
    """Load a network document.  Its meta, if present, is an object.  A
    recipe is rebuilt only when its meta names this module's
    BUILDER_PROCEDURE, and its spectra are then checked against the stored
    ones.  The document's n0 and dims must be those of the network it loads
    to."""
    if not isinstance(doc, dict) or doc.get("format") != "mlvamp-network":
        raise ConfigError("not a network document")
    if doc.get("version") not in (1, DOCUMENT_VERSION):
        raise ConfigError(f"unsupported network document version {doc.get('version')!r}")
    mode = doc.get("mode")
    if mode not in ("recipe", "explicit"):
        raise ConfigError(f"network document mode must be 'recipe' or 'explicit', "
                          f"not {mode!r}")
    for key in ("n0", "stages"):
        if key not in doc:
            raise ConfigError(f"network document has no {key!r}")
    if not isinstance(doc["stages"], list):
        raise ConfigError(f"network document stages must be a list, "
                          f"not {doc['stages']!r}")
    for i, entry in enumerate(doc["stages"], start=1):
        if not isinstance(entry, dict):
            raise ConfigError(f"stage {i}: not an object: {entry!r}")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ConfigError(f"network document meta must be an object, not {meta!r}")
    if mode == "recipe":
        if meta.get("builder") != BUILDER_PROCEDURE:
            raise ConfigError(f"recipe made by builder {meta.get('builder')!r}; "
                              f"only {BUILDER_PROCEDURE!r} can rebuild it")
        if not isinstance(meta.get("builder_args"), dict):
            raise ConfigError("recipe document has no meta.builder_args")
        try:
            net = build_synthetic_network(**meta["builder_args"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"recipe builder_args: {exc}") from exc
        same = len(doc["stages"]) == net.n_layers and all(
            st.kind != "linear" or (np.shape(e.get("s")) == st.s.shape and
                                    np.allclose(st.s, e["s"], rtol=1e-12, atol=1e-12))
            for st, e in zip(net.stages, doc["stages"]))
        if not same:
            raise ConfigError("rebuilt network does not match stored spectra")
        return _same_header(doc, net)
    stages = []
    for i, entry in enumerate(doc["stages"], start=1):
        try:
            stages.append(_stage_from_json(entry))
        except KeyError as exc:
            raise ConfigError(f"stage {i}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"stage {i}: {exc}") from exc
    net = NetworkSpec(n0=doc["n0"], stages=stages, meta=meta)
    net.validate()
    return _same_header(doc, net)


def save_network(net, path, mode="auto"):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(network_to_json(net, mode), fh)


def load_network(path):
    with open(path, "r", encoding="utf-8") as fh:
        return network_from_json(json.load(fh))
