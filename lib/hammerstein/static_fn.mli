(** Static nonlinear stages of a Hammerstein model, represented
    generically so that both regression backends (RVF with closed-form
    integrals, CAFFEINE with symbolic-or-numeric integrals) can plug in.

    A stage is a function with a structural {!shape}. The RVF stages are
    data: closed-form [ln]/[atan] expansions over a pole basis, combined
    by {!add}/{!sub}. {!Hmodel.simulate} compiles that data into a plan
    that evaluates each distinct pole basis once per time step. Every
    other stage (CAFFEINE expressions, numeric tables, {!scale}d stages,
    hand-written functions) is an opaque closure the plan simply calls.
    The record is private so the [eval]/[deriv]/[formula] closures always
    agree with [shape]. *)

type expansion = {
  betas : float array;  (** pole real parts [β_m] (state-axis centres) *)
  alphas : float array;  (** pole imaginary parts [α_m] *)
  c1 : float array;  (** [ln] coefficients *)
  c2 : float array;  (** [atan] coefficients *)
  const : float;  (** the constant term [d] of r(x) = f'(x) *)
  offset : float;  (** integration constant [C] of f(x) *)
}
(** The closed-form integral of a real rational residue function over
    conjugate pole pairs [β_m ± jα_m] (eq. (19) of the paper):

    [f(x) = C + d·x + Σ_m (c1_m·ln((x−β_m)² + α_m²) − 2c2_m·atan((x−β_m)/α_m))]

    [r(x) = f'(x) = d + Σ_m (2c1_m(x−β_m) − 2c2_m·α_m) / ((x−β_m)² + α_m²)]

    [betas], [alphas], [c1] and [c2] have one entry per pair; the pair
    [(betas, alphas)] is the pole basis that stages fitted on the same
    state poles share. *)

val expansion_eval : expansion -> float -> float
(** f(x), the terms summed in pole order. *)

val expansion_deriv : expansion -> float -> float
(** r(x) = f'(x). *)

val expansion_formula : expansion -> string
(** Human-readable analytical expression of f(x). *)

type shape =
  | Expansion of expansion  (** closed form, see {!expansion} *)
  | Add of t * t  (** built by {!add} *)
  | Sub of t * t  (** built by {!sub} *)
  | Opaque  (** any other function: only the closures describe it *)

and t = private {
  eval : float -> float;  (** f(x) — the integrated nonlinearity *)
  deriv : float -> float;  (** f'(x) = r(x) — the fitted residue function *)
  formula : string;  (** human-readable analytical expression of f *)
  analytic : bool;  (** false when the integral needed a numeric fallback *)
  shape : shape;
}

val make :
  ?analytic:bool -> formula:string -> eval:(float -> float) ->
  deriv:(float -> float) -> unit -> t
(** An [Opaque] stage from its closures. *)

val of_expansion : expansion -> t
(** The closed-form stage: [eval], [deriv] and [formula] are
    {!expansion_eval}, {!expansion_deriv} and {!expansion_formula}. *)

val zero : t
val add : t -> t -> t
val sub : t -> t -> t

val scale : float -> t -> t
(** [k·f], an [Opaque] stage. *)

val of_samples_numeric : xs:float array -> rs:float array -> t
(** Numeric fallback: [deriv] interpolates the samples [(xs, rs)] and
    [eval] is the cumulative trapezoidal integral. [analytic] is false —
    this is what a non-integrable CAFFEINE term degrades to. *)
