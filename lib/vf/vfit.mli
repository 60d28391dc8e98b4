(** Relaxed Vector Fitting with common poles across many elements.

    This is the regression engine used twice by the paper's flow: once on
    the frequency axis (elements = trajectory samples [k], points
    [z = jω_l]) and once on the state-space axis (elements = residue
    trajectories, points [z = x_k] real) — "both frequency and
    state-dependent data is fitted using the same regression engine".

    Implementation notes: the pole-identification step uses the relaxed
    nontriviality constraint of Gustavsen (2006) and the fast per-element
    QR condensation of Deschrijver et al. (2008), ref. [9] of the paper.
    Pole relocation computes the zeros of the weighting function σ as
    eigenvalues of [A − b·c̃ᵀ/d̃].

    On real-axis data (the state and static stages: real points, real
    data) every imaginary row of the least-squares systems is exactly
    zero. The fast kernel and {!identify} leave out those past the pivot
    block, which changes no bit of the result (DESIGN.md §13). *)

type weighting = Uniform | Inv_magnitude | Inv_sqrt

type relocation_kernel =
  | Dense
      (** legacy reference kernel: per-element systems freshly allocated
          and factored with the copying QR entry points *)
  | Fast
      (** default: in-place workspace QR of [phi0 | −D·phi1] per element
          keeping only the [R22]/[Q2ᵀV] blocks, with the shared [phi0]
          factorization hoisted out of the element loop under uniform
          weighting. Bit-identical results to [Dense], several times
          faster, and the per-element blocks fan out across a pool. *)

type opts = {
  iterations : int;  (** pole-relocation sweeps (default 10) *)
  with_const : bool;  (** include a constant term d per element *)
  with_slope : bool;  (** include a linear term h·z per element *)
  enforce_stable : bool;  (** reflect poles into the left half plane *)
  min_imag : float;  (** > 0 forbids real poles (state-space mode) *)
  relax : bool;  (** relaxed σ normalization *)
  weighting : weighting;
  max_magnitude : float;
      (** clamp relocated poles to this modulus (0 disables); keeps
          runaway spurious poles from leaving the sampled band *)
  relocation_kernel : relocation_kernel;
      (** which sigma-step implementation relocation uses (default
          [Fast]; [Dense] kept for differential testing) *)
}

val default_frequency_opts : opts
(** Stable poles enforced, inverse-square-root weighting, and a constant
    term per element: the dynamic TFT part [H(s) − H(0)] tends to
    [−H(0) ≠ 0] as [s → ∞], so a state-dependent direct feedthrough
    [d(x)] is required (its integral is folded into the model's static
    path). *)

val default_state_opts : opts
(** Real poles forbidden (min_imag set per-fit from the data range),
    constant term enabled, uniform weighting. *)

type info = {
  rms : float;  (** unweighted absolute RMS deviation *)
  max_err : float;
  iterations_run : int;
  pole_count : int;
}

val fit :
  ?opts:opts ->
  ?guard:Guard.t ->
  ?cancel:Cancel.t ->
  ?diag:Diag.t ->
  ?trace:Trace.buf ->
  ?metrics:Metrics.t ->
  ?obs:Obs.t ->
  ?pool:Exec.t ->
  ?label:string ->
  poles:Complex.t array ->
  points:Complex.t array ->
  data:Complex.t array array ->
  unit ->
  Model.t * info
(** [fit ~poles ~points ~data ()] fits [data.(e).(l) ≈ model_e(points.(l))]
    with common poles, starting the relocation from [poles].
    Requires [2·length points ≥ unknowns].

    With [diag], each relocation sweep records (prefixed by [label],
    default ["vfit"]): the per-iteration sigma RMS
    ([<label>.sigma_rms], the non-constant part of σ — goes to zero as
    the poles converge), the column-scale spread conditioning proxy
    ([<label>.column_scale_spread]) and the number of relocated poles
    reflected into the left half plane
    ([<label>.unstable_pole_flips]).

    With [trace], the fit records a [vf.fit] span containing one
    [vf.relocate] span per relocation sweep and one [vf.identify] span
    for the final residue identification; with [metrics], the
    per-iteration sigma RMS and the final fit RMS land in the
    [<label>.sigma_rms]/[<label>.fit_rms] histograms.

    With [obs], every relocation sweep emits a [vf_iteration] event
    carrying the full relocated pole set plus the sweep telemetry
    (sigma RMS, d̃, scale spread, stability flips), and — with the fast
    relocation kernel — a ["vf.sigma_qr"] rcond sample from the
    condensed-system QR.

    With [guard], the relocated poles are checked after the sweeps:
    non-finite poles or a pole whose modulus exceeds
    [guard.max_pole_growth] times the largest fit point raise
    [Guard.Violation]; a right-half-plane pole under [enforce_stable]
    is repaired by reflection ([<label>.guard_stabilized] counter plus
    a warning), and the identified model is NaN/Inf-checked. Hosts the
    ["vf.pole_flip"] fault probe (one invocation per relocation
    sweep) and the hang-class ["vf.spin"] site. With [cancel], every
    relocation sweep probes the token (site ["vf.relocate"]).

    With [pool], the independent per-element blocks of each sigma step
    and the per-element residue fits fan out across the warm pool;
    elements write disjoint rows of the condensed system, so results
    stay bit-identical to the sequential path. *)

val fit_auto :
  ?opts:opts ->
  ?guard:Guard.t ->
  ?cancel:Cancel.t ->
  ?diag:Diag.t ->
  ?trace:Trace.buf ->
  ?metrics:Metrics.t ->
  ?obs:Obs.t ->
  ?pool:Exec.t ->
  ?label:string ->
  make_poles:(int -> Complex.t array) ->
  ?start:int ->
  ?step:int ->
  ?max_poles:int ->
  tol:float ->
  points:Complex.t array ->
  data:Complex.t array array ->
  unit ->
  Model.t * info
(** Escalate the pole count ([start], [start+step], …) until the RMS
    error drops below [tol] (Algorithm 1's "while error > ε: P ← P+2").
    Returns the first model meeting the tolerance, or the best one found
    if [max_poles] is exhausted.

    Raises [Invalid_argument] when no pole count yields a model at all;
    the message (and, with [diag], an [Error] event) carries the last
    per-attempt failure reason instead of a bare "no successful fit".
    With [diag], also records the attempt count and which pole count
    the escalation settled on ([<label>.settled_poles] note). With
    [guard], a per-attempt [Guard.Violation] is recorded
    ([<label>.guard_violations]) and the escalation continues to the
    next pole count instead of giving up. With [obs], each completed
    attempt emits a [vf_attempt] event (pole count, rms, tol,
    accepted), guarded failures a [violation] event, and the final
    choice a [vf_settled] event. With [cancel], the token is probed
    before every attempt (site ["vf.fit_auto"]) and inside each fit;
    [Cancel.Cancelled]/[Cancel.Deadline_exceeded] abort the escalation
    rather than being swallowed as attempt failures. *)

(** {1 Building blocks}

    The pieces {!fit} is made of, exposed so the reference oracle
    ([Oracle.Vfit_ref]) and the tests can pin each against its
    reference. *)

val weights_of : opts -> Complex.t array array -> float array array
(** The per-sample row weights [fit] uses under [opts.weighting]. *)

type ws
(** Fit scratch: QR workspaces, the split basis table, the column
    scales and the relocation eigenproblem matrix. {!fit} makes one per
    call. Not thread-safe. *)

val workspace : unit -> ws

val identify :
  ?pool:Exec.t ->
  ws:ws ->
  opts:opts ->
  poles:Complex.t array ->
  points:Complex.t array ->
  data:Complex.t array array ->
  weights:float array array ->
  unit ->
  Model.t
(** Residue identification with fixed [poles]: per element, the least
    squares fit of the residue (and const/slope) coefficients. When all
    weight rows are bit-identical (uniform weighting) the matrix is
    factored once and shared by every element; on real-axis data the
    zero imaginary rows past the pivot block are left out. Bit-identical
    to one full per-element least squares. A rank-deficient element
    keeps zero coefficients (logged). With [pool], elements fan out with
    per-chunk scratch, bit-identical. On a warm [ws], the sequential
    call allocates only the returned model. *)

val dense_sigma_step :
  opts:opts ->
  poles:Complex.t array ->
  points:Complex.t array ->
  data:Complex.t array array ->
  weights:float array array ->
  relax:bool ->
  (float array * float) option
(** One sigma step of the legacy [Dense] kernel: the scaled-back
    [(c̃, d̃)] of the weighting function, or [None] when the condensed
    least squares degenerates. *)
