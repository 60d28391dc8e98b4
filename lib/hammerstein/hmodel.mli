(** Parallel Hammerstein models: static nonlinearities feeding a bank of
    first/second-order linear filters (eqs. (7) and (12)–(14) of the
    paper), plus the memoryless static path reconstructed from the DC
    conductance trace. *)

type branch =
  | First_order of { a : float; f : Static_fn.t }
      (** [ẏ = a·y + f(x(t))], output contribution [y] *)
  | Second_order of {
      alpha : float;
      beta : float;
      f1 : Static_fn.t;
      f2 : Static_fn.t;
    }
      (** complex pole pair [α ± jβ] in the input-shifted real realization
          (14): [ẏ = [α β; −β α]·y + (f1(x), f2(x))ᵀ], output [y₁ + y₂] *)

type t = {
  branches : branch array;
  static_path : Static_fn.t;  (** F₀ with its integration constant folded in *)
  name : string;
}

val make :
  ?name:string -> branches:branch array -> static_path:Static_fn.t -> unit -> t

val order : t -> int
(** Total dynamic state dimension. *)

val analytic : t -> bool
(** True when every static stage has a closed-form expression — the
    paper's "fully automated" criterion. *)

val transfer : t -> x:float -> s:Complex.t -> Complex.t
(** Frozen-state transfer function [T(x, s)] of the model (the modeled
    TFT hyperplane, Fig. 7): [H₀(x) + Σ_p r_p(x)/(s − a_p)] computed from
    the derivatives of the static stages. *)

val dc_gain : t -> x:float -> float
(** [T(x, 0)] — the small-signal DC gain at state [x]. *)

val dc_output : t -> x:float -> float
(** Steady-state output for a constant input [x]: the static path plus
    every branch's equilibrium [−A⁻¹·f(x)] contribution. This is the
    model's large-signal DC transfer curve. *)

val simulate :
  t -> u:(float -> float) -> t_stop:float -> dt:float -> Signal.Waveform.t
(** Time-domain response to input [u] from the DC steady state at
    [u(0)], fixed-step trapezoidal update per branch (A-stable; each
    step costs a handful of flops per pole — this is where the paper's
    speedup over transistor-level simulation comes from).

    Each call first compiles the static path and the branch inputs into
    a flat evaluation plan (DESIGN.md, "Model evaluation plan"): the
    closed-form stages' pole bases are deduplicated by bitwise equality,
    so one step takes one [ln] and one [atan] per distinct state pole
    ({!basis_poles}) however many stages share the basis, and a stage
    reused by several branches is evaluated once. Opaque stages are
    called as closures. The arithmetic is that of the stage closures, so
    the result is bit-identical to evaluating every [Static_fn.eval]
    separately. [u] is called once per step; with closed-form stages a
    step allocates only the boxed time argument of [u]. The plan and its
    scratch belong to the call, so a model may be simulated from several
    domains at once.

    @raise Invalid_argument unless [dt > 0] and [t_stop > 0]. *)

val basis_poles : t -> int
(** The number of [ln]/[atan] pairs one {!simulate} step evaluates: the
    poles of the distinct pole bases of the closed-form stages reachable
    through [Add]/[Sub] nodes. *)

val equations : t -> string
(** The analytical differential equations as readable text. *)
