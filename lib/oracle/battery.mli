(** The oracle battery: every analytical-reference check run in one
    sweep with machine-checkable tolerances and a schema-versioned JSON
    verdict.

    Each check compares a numerical path of the extraction stack against
    a closed form from {!Ladder} or {!Synth}:

    - ["rc-ac-closed-form"]: the AC pencil solve reproduces the RC
      ladder's exact [H(jω)] (and its exact DC gain of 1).
    - ["rlc-ac-closed-form"]: same against the RLC resonator's
      second-order section.
    - ["rc-tft-linear"]: a transient run + TFT transform of the linear
      ladder yields the exact transfer function at {e every} snapshot
      (state-independence included), and vector fitting on that TFT
      data recovers the closed-form poles and residues to ≤ 1e-8.
    - ["rlc-tft-vf"]: pole/residue recovery of the complex pair from
      TFT data of the resonator.
    - ["hammerstein-roundtrip"]: {!Synth.roundtrip} on the default
      generating parameters — frequency pair, state pair, transfer
      surface and DC curve all round-trip.
    - ["hammerstein-transient"]: the extracted model's transient under
      the paper-style training sine matches the generating system's.
    - ["pipeline-linear-model"]: the full pipeline front door
      ({!Tft_rvf.Pipeline.extract}) on the RC ladder produces a model
      whose validation transient tracks the circuit.
    - ["sparse-tft-parity"]: the sparse backend's TFT dataset of a
      diode-sprinkled RC grid (re-stamped CSC Jacobians, per-point
      sparse pencil solves) matches the dense backend's per-snapshot transfer
      trajectories to ≤ 1e-8 of the trajectory scale.
    - ["large-ladder-recovery"]: sparse DC solve, then both the
      extraction's per-point sparse sweep ({!Engine.Ac.Sparse}) and the
      rational-Krylov sweep of a 1000-stage RC ladder, each reproducing
      the closed-form tridiagonal spectrum's transfer function and unit
      DC gain to ≤ 1e-8.

    A metric {e passes} iff [value <= bound] — NaN values fail, so a
    silently corrupted number can never pass a tolerance. *)

type metric = {
  metric : string;
  value : float;
  bound : float;  (** pass iff [value <= bound]; NaN values fail *)
}

type verdict = {
  check : string;
  seconds : float;  (** wall clock of the check ({!Clock}) *)
  metrics : metric list;
  error : string option;  (** an exception escaping the check body *)
}

val metric_passed : metric -> bool
val verdict_passed : verdict -> bool
val all_passed : verdict list -> bool

val run : ?quick:bool -> unit -> verdict list
(** Run the whole battery ([quick] shrinks grids and snapshot counts;
    bounds are identical in both modes). Checks never raise: a thrown
    exception lands in [error]. *)

val clu_parity : unit -> verdict
(** ["clu-split-parity"]: on every TFT pencil of the buffer extraction
    (101 snapshots × 40 grid points + DC) the pencil build, the
    permutation, every LU entry of the split-storage {!Linalg.Clu} and
    the transfer matrix of {!Engine.Ac.transfer_ws} equal the boxed
    reference {!Clu_ref} bit for bit. Kept out of {!run} because it
    takes about a second (a training transient plus 4141 reference
    factorizations); [oracle_check] runs it after the battery, so
    [@oracle-smoke] gates on it. *)

val real_axis_parity : unit -> verdict
(** ["vf-real-axis-parity"]: the buffer's state-stage inputs
    ({!Rvf.state_problem}: the residue traces and the static trace)
    refitted at every pole count of the state ladder, once by
    {!Vf.Vfit.fit} (fast kernel with real-axis row compaction, shared
    residue factorization, in-place {!Linalg.Eig}) and once by
    {!Vfit_ref.fit} (dense kernel, per-element identification,
    {!Eig_ref}). [differing_bits] sums the differing bits over every
    pole, coefficient, constant, slope and error figure (bound 0);
    [outcome_mismatches] counts fits where only one side failed, the
    failures differ, or the iteration/pole counts differ (bound 0). Kept
    out of {!run} like {!clu_parity}; [oracle_check] runs it. *)

val plan_parity : unit -> verdict
(** ["hmodel-plan-parity"]: {!Hammerstein.Hmodel.simulate} (the compiled
    shared-basis plan) against the closure loop it replaced,
    {!Hmodel_ref.simulate}, on the extracted buffer model and four
    {!Synth} truth models, each driven by 8 seeded 32-bit PRBS patterns.
    Times and values must agree bit for bit. *)

val extrapolation : unit -> verdict
(** ["model-extrapolation"]: the extracted buffer model driven by a slow
    sine reaching 1.5 trained widths beyond its state range on both
    sides. Every output sample must be finite, and the peak [|y|] at
    most 1.25× the peak [|dc_output|] over the driven range.

    Both checks share one buffer extraction (about a second), so like
    {!clu_parity} they are kept out of {!run}; [oracle_check] runs them
    after the battery and [@oracle-smoke] gates on them. *)

val json : quick:bool -> verdict list -> string
(** Schema-versioned verdict document:
    [{"schema_version": 1, "kind": "oracle", "quick": bool,
    "passed": bool, "checks": [{"name", "passed", "seconds",
    "error"?, "metrics": [{"name", "value", "bound", "passed"}]}]}].
    Built on {!Minijson.emit}. *)

val summary : verdict list -> string
(** Human-readable one-line-per-check table. *)
