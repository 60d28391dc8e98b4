(** The real partial-fraction basis spanned by a normalized pole set.

    For a real pole [a]: [φ_p(z) = 1/(z−a)].
    For a conjugate pair [(a, ā)] in slots [(p, p+1)]:
    [φ_p(z) = 1/(z−a) + 1/(z−ā)] and [φ_{p+1}(z) = j/(z−a) − j/(z−ā)].

    Real linear combinations of these basis functions are exactly the
    real-coefficient strictly proper rationals with the given poles, in
    both uses of the engine: frequency responses evaluated at [z = jω]
    and residue trajectories evaluated at real [z = x]. *)

val row : Complex.t array -> Complex.t -> Complex.t array
(** [row poles z] evaluates all [P] basis functions at [z]. *)

val table : Complex.t array -> Complex.t array -> Complex.t array array
(** [table poles points] is [row] per point: [table.(l).(p)]. *)

val table_into :
  Complex.t array -> Complex.t array -> re:float array -> im:float array -> unit
(** [table_into poles points ~re ~im] is {!table} in caller-owned split
    storage: entry [(l, p)] goes to [re.(l*P + p)] and [im.(l*P + p)]
    (the arrays need at least [length points * P] entries). The values
    are bit-identical to {!table}'s, it raises where {!table} does, and
    it allocates nothing. *)

val residues_of_coeffs : Complex.t array -> float array -> Complex.t array
(** Convert real basis coefficients into complex residues per pole slot:
    a pair with coefficients [(c1, c2)] has residue [c1 + j·c2] at the
    positive-imaginary pole and the conjugate at its partner. *)

val coeffs_of_residues : Complex.t array -> Complex.t array -> float array
(** Inverse of {!residues_of_coeffs} (uses the positive-imaginary
    representative of each pair). *)

val state_matrices : Complex.t array -> Linalg.Mat.t * Linalg.Vec.t
(** The real block-diagonal realization [(A, b)] with [Σ c_p φ_p(z) =
    cᵀ(zI − A)⁻¹ b]: [a] for real poles, [[α β; −β α]] with [b = (2,0)ᵀ]
    for pairs. Used for pole relocation via eigenvalues. *)
