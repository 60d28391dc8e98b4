(** Numerical guard layer for the extraction stack.

    A {!t} bundles the thresholds that the numerical layers consult
    when a [?guard] argument is supplied — reciprocal-condition floors
    for the LU kernels, NaN/Inf sentinels on solver outputs, the
    transient step-halving retry budget, the snapshot-quarantine repair
    policy and the vector-fitting pole-runaway bound. Without a guard
    ([None], the default everywhere) every check is a single-branch
    no-op and the code path is bit-for-bit the pre-guard one; with a
    guard, checks are read-only unless a violation occurs, so a clean
    guarded run still returns bit-identical results.

    Detected-but-unrepairable conditions raise the typed {!Violation},
    which [Pipeline]'s escalation ladder treats as recoverable. *)

type repair = Drop | Interpolate
(** Quarantined-snapshot policy: remove the sample, or rebuild its
    transfer matrices by linear interpolation between the nearest
    healthy neighbours. *)

type t = {
  rcond_min : float;
      (** Factorizations whose diagonal-ratio reciprocal-condition
          estimate falls below this raise [Singular]. *)
  check_finite : bool;  (** NaN/Inf sentinels on solver outputs. *)
  max_step_halvings : int;
      (** Transient retry budget: the k-th retry integrates the failed
          step as [2^k] backward-Euler substeps. *)
  snapshot_repair : repair;
  max_pole_growth : float;
      (** A relocated pole whose magnitude exceeds this multiple of the
          largest fit point is flagged as a runaway. *)
}

val default : t
(** [rcond_min = 1e-12], [check_finite = true],
    [max_step_halvings = 4], [snapshot_repair = Interpolate],
    [max_pole_growth = 1e4]. *)

val repair_to_string : repair -> string

type violation = { site : string; detail : string }

exception Violation of violation

val describe : violation -> string

val fail : site:string -> string -> 'a
(** [fail ~site detail] raises {!Violation}. *)

val finite_array : float array -> bool
val finite_complex_array : Complex.t array -> bool

val check_vec : t option -> site:string -> float array -> unit
(** Raise {!Violation} when a guard with [check_finite] is attached and
    the array contains a NaN or infinity; no-op otherwise. *)

val check_complex_vec : t option -> site:string -> Complex.t array -> unit

val finite_split : re:float array -> im:float array -> bool
(** Every [re.(i) + i·im.(i)] is finite; [im] must be at least as long
    as [re]. *)

val check_split_vec :
  t option -> site:string -> re:float array -> im:float array -> unit
(** {!check_complex_vec} for a split re/im vector: the same
    {!Violation} at [site], and no allocation on the clean path. *)
