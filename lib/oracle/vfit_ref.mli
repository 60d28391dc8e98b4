(** The fit stage as it ran before real-axis compaction, the shared
    residue factorization and the in-place eigenvalue pipeline: the
    bitwise reference for {!Vf.Vfit}.

    {!identify} is the per-element residue identification operation for
    operation: one freshly allocated least squares over the full
    interleaved real/imaginary rows per element, on the boxed
    {!Vf.Basis.table}. {!fit} is the relocation loop on the legacy
    [Dense] sigma step with {!Eig_ref}, followed by {!identify} and the
    two separate error passes. [Vf.Vfit.fit] without guard, faults or
    telemetry must reproduce it bit for bit.

    Slow and allocating. A test oracle only: nothing in the extraction
    stack may call it. *)

val identify :
  opts:Vf.Vfit.opts ->
  poles:Complex.t array ->
  points:Complex.t array ->
  data:Complex.t array array ->
  weights:float array array ->
  Vf.Model.t
(** Rank-deficient elements keep zero coefficients, as in
    {!Vf.Vfit.identify}. *)

val relocate :
  opts:Vf.Vfit.opts ->
  poles:Complex.t array ->
  points:Complex.t array ->
  data:Complex.t array array ->
  weights:float array array ->
  Complex.t array option
(** One pole relocation sweep (relaxed attempt, then the non-relaxed
    retry): the normalized new poles, or [None] when the sweep stalls. *)

val fit :
  opts:Vf.Vfit.opts ->
  poles:Complex.t array ->
  points:Complex.t array ->
  data:Complex.t array array ->
  Vf.Model.t * Vf.Vfit.info
(** The reference [Vf.Vfit.fit]: [opts.relocation_kernel] is ignored
    (always the dense sigma step). Raises [Invalid_argument] where the
    fit does. *)
